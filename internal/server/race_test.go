package server

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/wal"
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

// streamTiers feeds reps into a new session of reg with one live
// subscriber per tier attached, flushing halfway (a drain mid-stroke,
// which the log records) and at the end, and then attaches one catch-up
// subscriber per tier for each start sequence froms picks from the log
// head. Once every catch-up has spliced it removes the session, so each
// stream ends with the session's "end". It returns live[tier] and
// caught[i][tier] for the i-th start.
func streamTiers(t *testing.T, reg *Registry, spec SessionSpec, reps []rfid.Report, froms func(head uint64) []uint64) (live [3][]Event, caught [][3][]Event) {
	t.Helper()
	tiers := [3]SubscribeTier{Tier0, Tier1, Tier2}
	sess, err := reg.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	collect := func(sub *Subscriber, out *[]Event) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range sub.Events() {
				*out = append(*out, ev)
			}
		}()
	}
	for i, tier := range tiers {
		sub, err := sess.Subscribe(SubscribeOptions{Tier: tier, Buffer: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		collect(sub, &live[i])
	}
	for _, half := range [][]rfid.Report{reps[:len(reps)/2], reps[len(reps)/2:]} {
		for _, rep := range half {
			if err := sess.Offer(rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	starts := froms(sess.WALSeq())
	caught = make([][3][]Event, len(starts))
	for i, from := range starts {
		for j, tier := range tiers {
			sub, err := sess.SubscribeFrom(from, SubscribeOptions{Tier: tier, Buffer: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			collect(sub, &caught[i][j])
		}
	}
	awaitSpliced(t, sess)
	reg.Remove(spec.ID)
	wg.Wait()
	return live, caught
}

// tagEvents groups a stream's point, stroke and glyph events by tag, in
// order, with the points' seq cleared so live and replayed compare. A
// live stream's points must carry no seq; a replayed stream's must carry
// their producing record's, at or after from. Under deep queues no drop
// or tier notice may appear.
func tagEvents(t *testing.T, label string, evs []Event, replayed bool, from uint64) map[string][]Event {
	t.Helper()
	out := map[string][]Event{}
	for _, ev := range evs {
		switch ev.Type {
		case "point":
			if replayed && (ev.Seq == 0 || ev.Seq < from) || !replayed && ev.Seq != 0 {
				t.Fatalf("%s: point at %v has seq %d (replayed %v, from %d)", label, ev.T, ev.Seq, replayed, from)
			}
			ev.Seq = 0
		case "stroke", "glyph":
		case "drop", "tier":
			t.Fatalf("%s: %s notice under deep queues", label, ev.Type)
		default:
			continue
		}
		out[ev.Tag] = append(out[ev.Tag], ev)
	}
	return out
}

// requireTagSuffixes asserts that each tag's events in got are the tail
// of its events in want — all of them when whole.
func requireTagSuffixes(t *testing.T, label string, got, want map[string][]Event, whole bool) {
	t.Helper()
	for tag := range got {
		if _, ok := want[tag]; !ok {
			t.Fatalf("%s: tag %s is not in the live stream", label, tag)
		}
	}
	for tag, w := range want {
		g := got[tag]
		if whole && len(g) != len(w) || len(g) > len(w) {
			t.Fatalf("%s: tag %s: %d events, live %d", label, tag, len(g), len(w))
		}
		tail := w[len(w)-len(g):]
		for i := range g {
			if !reflect.DeepEqual(g[i], tail[i]) {
				t.Fatalf("%s: tag %s: event %d of %d diverged:\n got: %+v\nlive: %+v", label, tag, i, len(g), g[i], tail[i])
			}
		}
	}
}

// TestCatchupCarriesLiveEvents: a catch-up replays the log through the
// same emitter the live session runs, so at every tier a catch-up from
// 0 attached after the stream delivers per tag exactly the live point,
// stroke and glyph events of that tier (T0's thinned points, T2's stroke
// closures, every tier's glyphs), and a catch-up from the middle of the
// log a suffix of them.
func TestCatchupCarriesLiveEvents(t *testing.T) {
	run, _ := scenario(t)
	store, err := wal.Open(t.TempDir(), wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := testRegistry(t, RegistryConfig{NewReplayer: testReplayerFactory(t), WAL: store})
	var mid uint64
	live, caught := streamTiers(t, reg, SessionSpec{ID: "carries", Sweep: perTagSweep(run)},
		realtime.MergeStreams(run.ReportsRF...), func(head uint64) []uint64 {
			mid = head / 2
			return []uint64{0, mid}
		})
	for tier := range live {
		label := fmt.Sprintf("tier %d", tier)
		want := tagEvents(t, label+" live", live[tier], false, 0)
		counts := countByType(live[tier])
		if counts["point"] == 0 || counts["glyph"] == 0 || tier == 2 && counts["stroke"] == 0 {
			t.Fatalf("%s live stream too thin to compare: %v", label, counts)
		}
		t.Logf("%s live: %v", label, counts)
		requireTagSuffixes(t, label+" from 0", tagEvents(t, label+" from 0", caught[0][tier], true, 0), want, true)
		suffix := tagEvents(t, label+" from mid", caught[1][tier], true, mid)
		requireTagSuffixes(t, label+" from mid", suffix, want, false)
		n, all := 0, 0
		for tag := range want {
			n += len(suffix[tag])
			all += len(want[tag])
		}
		if n == 0 || n >= all {
			t.Fatalf("%s: from %d delivered %d of %d events, want a strict, non-empty suffix", label, mid, n, all)
		}
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

// TestCatchupAttachRefusedAfterExpiryClaim: the catch-up attach passes
// the same admission check as Subscribe, so a catch-up request still
// waiting for the ingest lock when idle expiry claims the session is refused instead of
// binding a subscriber to a session mid-teardown (the invariant
// TestExpireIdleVsAttachRace states for live attaches).
func TestCatchupAttachRefusedAfterExpiryClaim(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	sess, err := reg.Open(SessionSpec{ID: "claimed", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.claim(time.Now().Add(time.Hour), time.Minute) {
		t.Fatal("idle session could not be claimed")
	}
	if sub, err := sess.SubscribeFrom(0, SubscribeOptions{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("catch-up attach on a claimed session: %v, %v; want ErrSessionClosed", sub, err)
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
// reader ID, then arrival. Property-tested over random arrival streams
// with many ties: pops interleaved with pushes (as ingest releases a
// window) each return the earliest-arrived of the least (time, reader)
// pending, and draining the rest pops them in the stable sort of their
// arrival order by (time, reader).
func TestReorderHeapDeterministicTies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	key := func(a, b rfid.Report) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		return cmp.Compare(a.ReaderID, b.ReaderID)
	}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(64)
		var h reportHeap
		var pending []rfid.Report // the model: unpopped reports in arrival order
		for i := 0; i < n; i++ {
			rep := rfid.Report{
				// Few distinct timestamps → many ties.
				Time:      time.Duration(rng.Intn(4)) * time.Millisecond,
				ReaderID:  rng.Intn(3),
				AntennaID: rng.Intn(8),
				PhaseRad:  rng.Float64(),
			}
			h.push(orderedReport{rep: rep, seq: uint64(i + 1)})
			pending = append(pending, rep)
			if trial%2 == 1 && rng.Intn(3) == 0 {
				least := slices.MinFunc(pending, key)
				want := slices.IndexFunc(pending, func(r rfid.Report) bool { return key(r, least) == 0 })
				if got := h.pop().rep; got != pending[want] {
					t.Fatalf("trial %d: interleaved pop = %+v, want %+v", trial, got, pending[want])
				}
				pending = slices.Delete(pending, want, want+1)
			}
		}
		slices.SortStableFunc(pending, key)
		for i := 0; h.Len() > 0; i++ {
			if got := h.pop().rep; got != pending[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got, pending[i])
			}
		}
	}
}

// TestReorderHeapZeroAllocs gates the reorder buffer at zero allocations
// per report: once its backing array has grown, a push and a pop box
// nothing.
func TestReorderHeapZeroAllocs(t *testing.T) {
	var h reportHeap
	for i := 0; i < 64; i++ {
		h.push(orderedReport{rep: rfid.Report{Time: time.Duration(i%7) * time.Millisecond, ReaderID: i % 2}, seq: uint64(i)})
	}
	seq := uint64(64)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		h.push(orderedReport{rep: rfid.Report{Time: time.Duration(seq%7) * time.Millisecond}, seq: seq})
		h.pop()
	})
	if allocs != 0 {
		t.Fatalf("reorder push+pop makes %v allocs, want 0", allocs)
	}
}
