package server

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
)

// TestCatchupSubscriberSplicesWithoutGapOrDuplicate: a subscriber that
// attaches mid-stream with ?from=0 must see, per tag, exactly the point
// sequence a subscriber attached from the start saw — replayed prefix
// from the WAL, live tail spliced at the log head, no gap, no duplicate.
func TestCatchupSubscriberSplicesWithoutGapOrDuplicate(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	sess, err := reg.Open(SessionSpec{ID: "catchup", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	reference, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		Tag        string
		T          time.Duration
		X, Z       float64
		Confidence float64
		Hypotheses int
		Switched   bool
	}
	var collectMu sync.Mutex
	collect := func(sub *Subscriber) (map[string][]point, func()) {
		got := map[string][]point{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range sub.Events() {
				if ev.Type == "drop" {
					t.Error("oversized queue dropped events — comparison invalid")
				}
				if ev.Type != "point" {
					continue
				}
				collectMu.Lock()
				got[ev.Tag] = append(got[ev.Tag], point{
					Tag: ev.Tag, T: ev.T, X: ev.X, Z: ev.Z,
					Confidence: ev.Confidence, Hypotheses: ev.Hypotheses, Switched: ev.Switched,
				})
				collectMu.Unlock()
			}
		}()
		return got, func() { <-done }
	}
	total := func(m map[string][]point) int {
		collectMu.Lock()
		defer collectMu.Unlock()
		n := 0
		for _, ps := range m {
			n += len(ps)
		}
		return n
	}
	refPoints, refWait := collect(reference)

	merged := realtime.MergeStreams(run.ReportsRF...)
	mid := len(merged) / 2
	for _, rep := range merged[:mid] {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Attach the late subscriber mid-stream: full history requested.
	late, err := sess.SubscribeFrom(0, SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	latePoints, lateWait := collect(late)
	for _, rep := range merged[mid:] {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// After the flush the reference's point set is final; wait for the
	// late subscriber's replay to catch it before tearing down (deleting
	// the session cancels an in-flight catch-up, by design — the delete
	// also deletes the log it reads from).
	deadline := time.Now().Add(30 * time.Second)
	for total(latePoints) < total(refPoints) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	reg.Remove("catchup")
	refWait()
	lateWait()

	if len(refPoints) != len(run.Tags) {
		t.Fatalf("reference saw %d tags, want %d", len(refPoints), len(run.Tags))
	}
	for tag, ref := range refPoints {
		got := latePoints[tag]
		if len(got) != len(ref) {
			t.Fatalf("tag %s: late subscriber saw %d points, reference %d", tag, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("tag %s: point %d diverged across the splice:\n late: %+v\n  ref: %+v",
					tag, i, got[i], ref[i])
			}
		}
		// No duplicates or regressions across the catch-up→live boundary.
		for i := 1; i < len(got); i++ {
			if got[i].T <= got[i-1].T {
				t.Fatalf("tag %s: time regressed %v -> %v at %d", tag, got[i-1].T, got[i].T, i)
			}
		}
	}

	// A from in the middle of the log yields a strict suffix.
	sess2, err := reg.Open(SessionSpec{ID: "catchup2", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range merged {
		if err := sess2.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess2.Flush(); err != nil {
		t.Fatal(err)
	}
	head := sess2.WALSeq()
	suffix, err := sess2.SubscribeFrom(head/2, SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	sufPoints, sufWait := collect(suffix)
	for total(sufPoints) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	reg.Remove("catchup2")
	sufWait()
	n := total(sufPoints)
	if n == 0 {
		t.Fatal("mid-log from produced no points")
	}
	if ref := total(refPoints); n >= ref {
		t.Fatalf("from=%d delivered %d points, not a strict suffix of %d", head/2, n, ref)
	}
}

// TestExpireIdleVsAttachRace is the lifecycle-race regression gate:
// hammering subscriber and reader attaches against ExpireIdle under
// -race, an attach must never succeed against a session that expiry
// tears down — either the attach wins and the session survives the GC
// pass, or the claim wins and the attach fails. Before expiry claimed
// the session atomically, an attach could land between the idle check
// and the teardown and be bound to a session mid-close.
func TestExpireIdleVsAttachRace(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true, MaxSessions: 4096})
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("race-%d", i)
		sess, err := reg.Open(SessionSpec{ID: id, Sweep: perTagSweep(run)})
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg         sync.WaitGroup
			sub        *Subscriber
			subErr     error
			readerErr  error
			expiredIDs []string
		)
		conn, conn2 := net.Pipe()
		wg.Add(3)
		go func() {
			defer wg.Done()
			expiredIDs = reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute)
		}()
		go func() {
			defer wg.Done()
			sub, subErr = sess.Subscribe(SubscribeOptions{Buffer: 4})
		}()
		go func() {
			defer wg.Done()
			readerErr = sess.addReader(conn)
		}()
		wg.Wait()
		expired := false
		for _, eid := range expiredIDs {
			if eid == id {
				expired = true
			}
		}
		if expired && subErr == nil {
			t.Fatalf("iteration %d: subscriber attached to a session expiry tore down", i)
		}
		if expired && readerErr == nil {
			t.Fatalf("iteration %d: reader attached to a session expiry tore down", i)
		}
		if !expired {
			// The attach won; the session must be fully functional.
			if _, ok := reg.Get(id); !ok {
				t.Fatalf("iteration %d: unexpired session missing from registry", i)
			}
		}
		if sub != nil {
			sub.Close()
		}
		sess.removeReader(conn)
		conn.Close()
		conn2.Close()
		reg.Remove(id)
	}
}

// TestCatchupAttachRefusedAfterExpiryClaim: the pump's catch-up attach
// passes the same admission check as Subscribe, so a catch-up request
// still queued when idle expiry claims the session is refused instead of
// binding a subscriber to a session mid-teardown (the invariant
// TestExpireIdleVsAttachRace states for live attaches).
func TestCatchupAttachRefusedAfterExpiryClaim(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	sess, err := reg.Open(SessionSpec{ID: "claimed", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.claimExpiry(time.Now().Add(time.Hour), time.Minute) {
		t.Fatal("idle session could not be claimed")
	}
	req := &catchupReq{sub: sess.newSubscriber(SubscribeOptions{}, true), head: make(chan uint64, 1)}
	if err := sess.enqueue(ingestItem{catchup: req}); err != nil {
		t.Fatal(err)
	}
	if head, ok := <-req.head; ok {
		t.Fatalf("catch-up attach bound to a claimed session at head %d", head)
	}
	if !errors.Is(req.err, ErrSessionClosed) {
		t.Fatalf("refusal = %v, want ErrSessionClosed", req.err)
	}
	if n := sess.Subscribers(); n != 0 {
		t.Fatalf("claimed session has %d subscribers, want 0", n)
	}
}

// TestSubscribeFromShedRecorded: a catch-up attach refused at the
// subscriber cap is shed exactly like a live one — counted, and put on
// the session timeline — on a live and on a recovered session.
func TestSubscribeFromShedRecorded(t *testing.T) {
	run, _ := scenario(t)
	reg := walControlRegistry(t, t.TempDir(), RegistryConfig{MaxSubscribers: 1})
	sess, err := reg.Open(SessionSpec{ID: "shed", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	sheds := func() int {
		n := 0
		for _, ev := range sess.Events() {
			if ev.Type == obs.EventShed {
				n++
			}
		}
		return n
	}
	feedSession(t, run, sess)
	live, err := sess.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shedBefore := reg.Metrics().Shed.Load()
	if _, err := sess.SubscribeFrom(0, SubscribeOptions{}); !errors.Is(err, ErrSubscriberLimit) {
		t.Fatalf("live catch-up past the cap: %v, want ErrSubscriberLimit", err)
	}
	if n := sheds(); n != 1 {
		t.Fatalf("live refusal left %d shed timeline entries, want 1", n)
	}
	live.Close()

	if err := reg.Park("shed"); err != nil {
		t.Fatal(err)
	}
	// A one-slot queue the test never reads holds the first replay
	// attached: it blocks on its second point.
	first, err := sess.SubscribeFrom(0, SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := sess.SubscribeFrom(0, SubscribeOptions{}); !errors.Is(err, ErrSubscriberLimit) {
		t.Fatalf("recovered catch-up past the cap: %v, want ErrSubscriberLimit", err)
	}
	if n := sheds(); n != 2 {
		t.Fatalf("recovered refusal left %d shed timeline entries in all, want 2", n)
	}
	if n := reg.Metrics().Shed.Load() - shedBefore; n != 2 {
		t.Fatalf("shed counter moved %d, want 2", n)
	}
}

// TestReorderHeapDeterministicTies: the resequencing heap must pop
// identically-timestamped reports in a deterministic order — time, then
// reader ID, then arrival — i.e. exactly the stable sort of the arrival
// stream by (time, reader). Property-tested over shuffled duplicates.
func TestReorderHeapDeterministicTies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(64)
		arrivals := make([]rfid.Report, n)
		for i := range arrivals {
			arrivals[i] = rfid.Report{
				// Few distinct timestamps → many ties.
				Time:      time.Duration(rng.Intn(4)) * time.Millisecond,
				ReaderID:  rng.Intn(3),
				AntennaID: rng.Intn(8),
				PhaseRad:  rng.Float64(),
			}
		}
		want := append([]rfid.Report(nil), arrivals...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Time != want[j].Time {
				return want[i].Time < want[j].Time
			}
			return want[i].ReaderID < want[j].ReaderID
		})
		var h reportHeap
		for i, rep := range arrivals {
			heap.Push(&h, orderedReport{rep: rep, seq: uint64(i + 1)})
		}
		for i := 0; h.Len() > 0; i++ {
			got := heap.Pop(&h).(orderedReport).rep
			if got != want[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, want[i])
			}
		}
	}
}
