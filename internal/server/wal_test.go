package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// testReplayerFactory mirrors the serve.go factory: shared system when
// the search config is untouched, a rebuilt one under an override —
// the same geometrySearchSystem the engine factories use, so a session
// opened with a search override replays identically to its live run.
func testReplayerFactory(t testing.TB) ReplayerFactory {
	scenario(t)
	return func(sweep time.Duration, geometry string, search *vote.SearchConfig, record bool) (*engine.Replayer, error) {
		sys, err := geometrySearchSystem(t, geometry, search)
		if err != nil {
			return nil, err
		}
		return engine.NewReplayer(engine.Config{
			System:        sys,
			SweepInterval: sweep,
			RecordTrace:   record,
		})
	}
}

// walRegistry builds a WAL-backed registry over dir with every-append
// syncing (crash images must be complete).
func walRegistry(t testing.TB, dir string) *Registry {
	t.Helper()
	store, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(RegistryConfig{
		NewEngine:   testFactory(t),
		NewReplayer: testReplayerFactory(t),
		WAL:         store,
		NoRecognize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// copyTree snapshots a directory — the crash image a SIGKILL would leave.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	if err := copyDir(src, dst); err != nil {
		t.Fatal(err)
	}
}

// copyDir is copyTree for goroutines that may not stop the test.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// crashChain is the live == WAL-retrace equivalence chain. It opens a
// session of a WAL registry over a fresh data dir, attaches a subscriber
// before the first report, feeds it reps, flushes and retraces the live
// session. A copy of the data dir taken then is the crash image a
// SIGKILL would leave (no close record, no shutdown path); a fresh
// registry recovers it. The chain holds when the live retrace and two
// retraces of the crash image agree gob for gob, and a catch-up from 0
// on the crash image serves, per tag, exactly the live subscriber's
// events. It returns the live retrace and the recovered session.
func crashChain(t *testing.T, spec SessionSpec, reps []rfid.Report) ([]engine.TagResult, *Session) {
	t.Helper()
	dir := t.TempDir()
	reg := walRegistry(t, dir)
	sess, err := reg.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var liveEvents []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			liveEvents = append(liveEvents, ev)
		}
	}()
	for _, rep := range reps {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	live, head, err := sess.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if head == 0 || len(live) == 0 {
		t.Fatalf("live retrace covered %d records and %d tags", head, len(live))
	}

	// SIGKILL: copy the data dir as-is. The log has no close record.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	sess.Close()
	<-done

	reg2 := walRegistry(t, crashDir)
	sess2, ok := reg2.Get(spec.ID)
	if !ok {
		t.Fatal("crashed session not rehydrated")
	}
	retraced, head2, err := sess2.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if head2 != head {
		t.Fatalf("crash image retrace covered head %d, live %d", head2, head)
	}
	requireSameResults(t, "live vs crash image", live, retraced)
	again, _, err := sess2.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "crash image, again", retraced, again)

	caught, err := sess2.SubscribeFrom(0, SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var replayed []Event
	for ev := range caught.Events() {
		replayed = append(replayed, ev)
	}
	want := tagEvents(t, "live", liveEvents, false, 0)
	if len(want) == 0 {
		t.Fatal("live subscriber got no tag events")
	}
	requireTagSuffixes(t, "crash image catch-up from 0", tagEvents(t, "catch-up", replayed, true, 0), want, true)
	return live, sess2
}

// TestWALRetraceMatchesLiveTrace is the WAL's acceptance gate: a session
// traced live and killed mid-stream, recovered from the WAL by a fresh
// registry and re-traced with the same config reproduces the live
// session's retrace and served points (crashChain).
func TestWALRetraceMatchesLiveTrace(t *testing.T) {
	run, _ := scenario(t)
	merged := realtime.MergeStreams(run.ReportsRF...)
	// Feed only a prefix: the "mid-stream" part of the kill.
	live, sess2 := crashChain(t, SessionSpec{ID: "crash", Sweep: perTagSweep(run)}, merged[:2*len(merged)/3])
	if len(live) != len(run.Tags) {
		t.Fatalf("live results for %d tags, want %d", len(live), len(run.Tags))
	}
	for _, r := range live {
		if r.Err != nil {
			t.Fatalf("tag %s: live: %v", r.Tag, r.Err)
		}
	}
	if sess2.State() != "recovered" {
		t.Fatalf("state = %q, want recovered", sess2.State())
	}
	if sess2.reg.metrics.SessionsRecovered.Load() != 1 {
		t.Fatal("recovery counter not incremented")
	}
	// Ingest and live subscription must refuse; only replay serves.
	if err := sess2.Offer(merged[0]); err != ErrSessionClosed {
		t.Fatalf("Offer on recovered session: %v", err)
	}
	if _, err := sess2.Subscribe(SubscribeOptions{}); err != ErrSessionClosed {
		t.Fatalf("Subscribe on recovered session: %v", err)
	}

	// A retrace under an overridden SearchConfig runs (dense reference
	// mode) and still traces every tag; results may legitimately differ.
	dense := &vote.SearchConfig{Mode: vote.SearchDense}
	overridden, _, err := sess2.Retrace(dense)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range overridden {
		if r.Err != nil {
			t.Fatalf("tag %s: dense retrace: %v", r.Tag, r.Err)
		}
		if r.Result.Best.Trajectory.Len() == 0 {
			t.Fatalf("tag %s: dense retrace produced no trajectory", r.Tag)
		}
	}
}

// TestRecoveredCopyHoldsEmittedPoints: a copy of the data dir taken as
// the live engine emits — on every 16th update, on the shard goroutine,
// before the update reaches the session — is the image a SIGKILL would
// leave there, mid-batch and between fsyncs (SyncEvery 64). Ingest
// commits each released batch before the engine sees a report of it,
// so every copy holds a record of every report behind every position
// emitted by then: replaying it emits each of those positions again, in
// order, at the same coordinates.
func TestRecoveredCopyHoldsEmittedPoints(t *testing.T) {
	run, _ := scenario(t)
	dir, images := t.TempDir(), t.TempDir()
	store, err := wal.Open(dir, wal.Options{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	type image struct {
		dir string
		// emitted counts each tag's positions emitted by the copy.
		emitted map[string]int
	}
	var (
		mu      sync.Mutex
		live    = map[string][]realtime.Position{}
		updates int
		taken   []image
		copyErr error
	)
	factory := func(sweep time.Duration, geometry string, search *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error) {
		sys, err := geometrySearchSystem(t, geometry, search)
		if err != nil {
			return nil, err
		}
		return engine.New(engine.Config{
			Shards: 2, System: sys, SweepInterval: sweep,
			OnUpdate: func(u engine.Update) {
				mu.Lock()
				live[u.Tag] = append(live[u.Tag], u.Positions...)
				if updates++; updates%16 == 0 && copyErr == nil {
					img := image{dir: filepath.Join(images, strconv.Itoa(len(taken))), emitted: map[string]int{}}
					copyErr = copyDir(dir, img.dir)
					for tag, ps := range live {
						img.emitted[tag] = len(ps)
					}
					taken = append(taken, img)
				}
				mu.Unlock()
				onUpdate(u)
			},
		})
	}
	reg, err := NewRegistry(RegistryConfig{NewEngine: factory, NewReplayer: testReplayerFactory(t), WAL: store, NoRecognize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sess, err := reg.Open(SessionSpec{ID: "image", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	// Full ingest bursts release batches of about that size per
	// OfferBatch: a shard can emit from a batch's first reports while
	// ingest would still be writing its last, were the rule broken.
	merged := realtime.MergeStreams(run.ReportsRF...)
	for i := 0; i < len(merged); i += ingestBurst {
		if err := sess.OfferBatch(merged[i:min(i+ingestBurst, len(merged))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if copyErr != nil {
		t.Fatal(copyErr)
	}
	if len(taken) < 4 {
		t.Fatalf("%d updates left %d images, want at least 4", updates, len(taken))
	}
	for i, img := range taken {
		st, err := wal.Open(img.dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := testReplayerFactory(t)(perTagSweep(run), "", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		replayed := map[string][]realtime.Position{}
		rp.OnUpdate = func(u engine.Update) { replayed[u.Tag] = append(replayed[u.Tag], u.Positions...) }
		if err := ReplayLog(st, "image", 0, rp, nil); err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		for tag, n := range img.emitted {
			got := replayed[tag]
			if len(got) < n {
				t.Fatalf("image %d, tag %s: replay emits %d positions, live had emitted %d", i, tag, len(got), n)
			}
			for j, want := range live[tag][:n] {
				if got[j].Time != want.Time || got[j].Pos != want.Pos {
					t.Fatalf("image %d, tag %s, position %d: replay %v at %v, live %v at %v",
						i, tag, j, got[j].Pos, got[j].Time, want.Pos, want.Time)
				}
			}
		}
	}
}

// TestWALFailureKeepsServing: a durable session whose log turns
// unwritable mid-stream abandons the log once and keeps tracing and
// serving. Every append rotates the log (one-byte segments), so removing
// the session's log directory fails the next one.
func TestWALFailureKeepsServing(t *testing.T) {
	run, _ := scenario(t)
	dir := t.TempDir()
	store, err := wal.Open(dir, wal.Options{NoSync: true, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, testRegistry(t, RegistryConfig{NewReplayer: testReplayerFactory(t), WAL: store, NoRecognize: true}))
	sess, err := srv.reg.Open(SessionSpec{ID: "failing", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var points []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			if ev.Type == "point" {
				points = append(points, ev)
			}
		}
	}()
	merged := realtime.MergeStreams(run.ReportsRF...)
	cuts := []int{len(merged) / 10, len(merged) / 2, len(merged)}
	feed := func(reps []rfid.Report) {
		t.Helper()
		for _, rep := range reps {
			if err := sess.Offer(rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	feed(merged[:cuts[0]])
	if sess.WALSeq() == 0 {
		t.Fatal("nothing logged before the failure")
	}
	if err := os.RemoveAll(filepath.Join(dir, "failing")); err != nil {
		t.Fatal(err)
	}
	feed(merged[cuts[0]:cuts[1]])
	head := sess.WALSeq()
	feed(merged[cuts[1]:])
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sess.WALSeq(); got != head {
		t.Fatalf("wal_seq moved %d → %d after the log failed", head, got)
	}
	text, err := (&Client{BaseURL: "http://" + srv.HTTPAddr()}).FetchMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "\nrfidrawd_wal_failures_total 1\n") {
		t.Fatal("rfidrawd_wal_failures_total is not 1")
	}
	sess.Close()
	<-done
	after := 0
	for _, ev := range points {
		if ev.T > merged[cuts[1]].Time {
			after++
		}
	}
	if after == 0 {
		t.Fatalf("%d points served, none after the log failed", len(points))
	}
}

// TestRecoveredSessionLifecycle: recovered sessions are listable, never
// idle-expired, serve full-history catch-up streams ending with "end",
// and DELETE removes both the entry and the on-disk record.
func TestRecoveredSessionLifecycle(t *testing.T) {
	run, _ := scenario(t)
	dir := t.TempDir()
	reg := walRegistry(t, dir)
	sess, err := reg.Open(SessionSpec{ID: "keep", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	reg.Close()

	reg2 := walRegistry(t, dir)
	sess2, ok := reg2.Get("keep")
	if !ok {
		t.Fatal("session not rehydrated after clean close")
	}
	// The clean close compacted the log to a single segment.
	if segs, _ := filepath.Glob(filepath.Join(dir, "keep", "*.wal")); len(segs) != 1 {
		t.Fatalf("clean-closed session has %d segments, want 1 (compacted)", len(segs))
	}
	// Idle GC must leave recovered sessions alone.
	if ids := reg2.ExpireIdle(time.Now().Add(24*time.Hour), time.Minute); len(ids) != 0 {
		t.Fatalf("idle GC expired recovered sessions: %v", ids)
	}
	// Its ID stays reserved.
	if _, err := reg2.Open(SessionSpec{ID: "keep", Sweep: perTagSweep(run)}); err != ErrSessionExists {
		t.Fatalf("open over recovered id: %v, want ErrSessionExists", err)
	}

	// Full-history catch-up replay: points for both tags, then "end".
	sub, err := sess2.SubscribeFrom(0, SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]int{}
	sawEnd := false
	for ev := range sub.Events() {
		switch ev.Type {
		case "point":
			if ev.Seq == 0 {
				t.Fatal("replayed point without a log sequence")
			}
			points[ev.Tag]++
		case "end":
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatal("recovered replay did not end with an end event")
	}
	if len(points) != len(run.Tags) {
		t.Fatalf("replay covered %d tags, want %d (%v)", len(points), len(run.Tags), points)
	}

	// DELETE forgets: registry entry and disk record both go.
	if !reg2.Remove("keep") {
		t.Fatal("remove failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "keep")); !os.IsNotExist(err) {
		t.Fatalf("wal dir survives delete: %v", err)
	}
	if _, err := reg2.Open(SessionSpec{ID: "keep", Sweep: perTagSweep(run)}); err != nil {
		t.Fatalf("open after delete: %v", err)
	}
}

// TestExpiryParksDurableSessions: idle expiry of a WAL-backed session
// reclaims its engine but keeps the record serveable in the registry as
// "recovered" — the motivating bug (idle GC losing the session forever)
// is gone.
func TestExpiryParksDurableSessions(t *testing.T) {
	run, _ := scenario(t)
	reg := walRegistry(t, t.TempDir())
	sess, err := reg.Open(SessionSpec{ID: "park", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	ids := reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute)
	if len(ids) != 1 || ids[0] != "park" {
		t.Fatalf("ExpireIdle = %v, want [park]", ids)
	}
	parked, ok := reg.Get("park")
	if !ok {
		t.Fatal("durable session vanished on expiry")
	}
	if parked.State() != "recovered" {
		t.Fatalf("state = %q, want recovered", parked.State())
	}
	if reg.metrics.SessionsRetained.Load() != 1 {
		t.Fatal("retained gauge wrong")
	}
	results, _, err := parked.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("tag %s: retrace after expiry: %v", r.Tag, r.Err)
		}
	}
	// Expiry freed the admission slot.
	if reg.live.Load() != 0 {
		t.Fatalf("live count = %d after expiry", reg.live.Load())
	}
}

// TestFlushIdempotentSingleRecord: repeated explicit flushes with no new
// ingest log exactly one flush record — the session-level face of the
// drain-race fix, which is what keeps a WAL replay equivalent to the
// live trace (a second logged flush would close sweeps twice on replay
// only).
func TestFlushIdempotentSingleRecord(t *testing.T) {
	run, _ := scenario(t)
	dir := t.TempDir()
	reg := walRegistry(t, dir)
	sess, err := reg.Open(SessionSpec{ID: "flushy", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	store, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scanFlushes := func() int {
		t.Helper()
		_, stats, err := store.Scan("flushy")
		if err != nil {
			t.Fatal(err)
		}
		return stats.Flushes
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	half := len(merged) / 2
	for _, rep := range merged[:half] {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	before := scanFlushes()
	if before == 0 {
		t.Fatal("effective flush logged no record")
	}
	// The gate: back-to-back flushes with nothing new must log nothing
	// (and close no sweep — the replay would otherwise close it twice).
	for i := 0; i < 3; i++ {
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if after := scanFlushes(); after != before {
		t.Fatalf("idle flushes logged %d extra records", after-before)
	}
	// New ingest makes the next flush effective again.
	for _, rep := range merged[half:] {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := scanFlushes(); after <= before {
		t.Fatalf("flush after new ingest logged nothing (%d -> %d)", before, after)
	}
	_, stats, err := store.Scan("flushy")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != len(merged) {
		t.Fatalf("logged %d reports, want %d", stats.Reports, len(merged))
	}
}
