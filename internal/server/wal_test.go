package server

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/realtime"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// recordingFactory builds session engines with RecordTrace on, so the
// live trace can be snapshotted for disk round-trip comparison.
func recordingFactory(t testing.TB) EngineFactory {
	scenario(t)
	return func(sweep time.Duration, geometry string, search *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error) {
		sys, err := geometrySearchSystem(t, geometry, search)
		if err != nil {
			return nil, err
		}
		return engine.New(engine.Config{
			Shards:        2,
			System:        sys,
			SweepInterval: sweep,
			OnUpdate:      onUpdate,
			RecordTrace:   true,
		})
	}
}

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
// syncing (crash images must be complete) and trace recording.
func walRegistry(t testing.TB, dir string) *Registry {
	t.Helper()
	store, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(RegistryConfig{
		NewEngine:   recordingFactory(t),
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
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWALRetraceMatchesLiveTrace is the PR's acceptance gate: a session
// traced live, killed mid-stream (modelled as a crash image of the data
// dir — no close record, no shutdown path), recovered from the WAL by a
// fresh registry and re-traced with the same config must yield per-tag
// batch Results gob-byte-identical to the live trace of the recorded
// prefix — the disk round-trip extension of TestBatchIsReplayOfStreaming.
func TestWALRetraceMatchesLiveTrace(t *testing.T) {
	run, _ := scenario(t)
	dir := t.TempDir()
	reg := walRegistry(t, dir)
	sess, err := reg.Open(SessionSpec{ID: "crash", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	// Feed only a prefix: the "mid-stream" part of the kill.
	prefix := merged[:2*len(merged)/3]
	for _, rep := range prefix {
		if err := sess.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// Snapshot the live trace of everything ingested so far.
	live, err := sess.TraceResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != len(run.Tags) {
		t.Fatalf("live results for %d tags, want %d", len(live), len(run.Tags))
	}
	for _, r := range live {
		if r.Err != nil {
			t.Fatalf("tag %s: live: %v", r.Tag, r.Err)
		}
	}

	// SIGKILL: copy the data dir as-is. The log has no close record.
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	// A fresh daemon recovers the crash image.
	reg2 := walRegistry(t, crashDir)
	sess2, ok := reg2.Get("crash")
	if !ok {
		t.Fatal("crashed session not rehydrated")
	}
	if sess2.State() != "recovered" {
		t.Fatalf("state = %q, want recovered", sess2.State())
	}
	if reg2.metrics.SessionsRecovered.Load() != 1 {
		t.Fatal("recovery counter not incremented")
	}
	// Ingest and live subscription must refuse; only replay serves.
	if err := sess2.Offer(merged[0]); err != ErrSessionClosed {
		t.Fatalf("Offer on recovered session: %v", err)
	}
	if _, err := sess2.Subscribe(SubscribeOptions{}); err != ErrSessionClosed {
		t.Fatalf("Subscribe on recovered session: %v", err)
	}

	retraced, head, err := sess2.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if head == 0 {
		t.Fatal("retrace covered nothing")
	}
	if len(retraced) != len(live) {
		t.Fatalf("retraced %d tags, live %d", len(retraced), len(live))
	}
	for i := range live {
		if retraced[i].Err != nil {
			t.Fatalf("tag %s: retrace: %v", retraced[i].Tag, retraced[i].Err)
		}
		if retraced[i].Tag != live[i].Tag {
			t.Fatalf("tag order: %s vs %s", retraced[i].Tag, live[i].Tag)
		}
		if !bytes.Equal(gobBytes(t, live[i].Result), gobBytes(t, retraced[i].Result)) {
			t.Errorf("tag %s: retrace differs from live trace after disk round-trip", live[i].Tag)
		}
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
	if reg.live != 0 {
		t.Fatalf("live count = %d after expiry", reg.live)
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
