package server

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/realtime"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// This file covers the tentpole: demand-signal admission (congestion
// score, 429s with Retry-After), pressure parking ordered by session
// cost, the runtime-knob control plane, and the park → resume → retrace
// determinism guarantee.

// walControlRegistry is walRegistry with admission tuning exposed.
func walControlRegistry(t testing.TB, dir string, cfg RegistryConfig) *Registry {
	t.Helper()
	store, err := wal.Open(dir, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewEngine = recordingFactory(t)
	cfg.NewReplayer = testReplayerFactory(t)
	cfg.WAL = store
	cfg.NoRecognize = true
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// TestKnobRoundTrip: ApplyKnobs mutations are visible in the next Knobs
// snapshot, invalid patches are refused whole, and the search default
// can be set and cleared.
func TestKnobRoundTrip(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	k := reg.Knobs()
	if k.IdleTimeout != 2*time.Minute || k.ShedThreshold != 0.9 || k.ParkThreshold != 0.75 {
		t.Fatalf("default knobs = %+v", k)
	}

	idle, retain := 30*time.Second, time.Hour
	shed, park := 0.5, 0.25
	sync := 7
	if err := reg.ApplyKnobs(KnobPatch{
		IdleTimeout:   &idle,
		RetainFor:     &retain,
		ShedThreshold: &shed,
		ParkThreshold: &park,
		Capacity:      &Capacity{SearchEvalsPerSec: 100},
		WALSyncEvery:  &sync,
		SetSearch:     true,
		Search:        &vote.SearchConfig{Mode: vote.SearchDense, TopK: 3},
	}); err != nil {
		t.Fatal(err)
	}
	k = reg.Knobs()
	if k.IdleTimeout != idle || k.RetainFor != retain || k.ShedThreshold != shed || k.ParkThreshold != park {
		t.Fatalf("mutated knobs = %+v", k)
	}
	if k.Capacity.SearchEvalsPerSec != 100 || k.Capacity.Backlog == 0 {
		t.Fatalf("capacity not normalized: %+v", k.Capacity)
	}
	if k.WALSyncEvery != 7 {
		t.Fatalf("wal sync = %d", k.WALSyncEvery)
	}
	if k.Search == nil || k.Search.Mode != vote.SearchDense || k.Search.TopK != 3 {
		t.Fatalf("search knob = %+v", k.Search)
	}

	// A partial patch leaves everything else alone.
	shed2 := 0.8
	if err := reg.ApplyKnobs(KnobPatch{ShedThreshold: &shed2}); err != nil {
		t.Fatal(err)
	}
	k = reg.Knobs()
	if k.ShedThreshold != 0.8 || k.IdleTimeout != idle || k.Search == nil {
		t.Fatalf("partial patch clobbered knobs: %+v", k)
	}

	// Clearing the search default.
	if err := reg.ApplyKnobs(KnobPatch{SetSearch: true}); err != nil {
		t.Fatal(err)
	}
	if reg.Knobs().Search != nil {
		t.Fatal("search knob not cleared")
	}

	// Invalid values are refused with ErrBadSpec.
	bad := -time.Second
	if err := reg.ApplyKnobs(KnobPatch{IdleTimeout: &bad}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative idle accepted: %v", err)
	}
	badSearch := &vote.SearchConfig{TopK: 300}
	if err := reg.ApplyKnobs(KnobPatch{SetSearch: true, Search: badSearch}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("out-of-range search accepted: %v", err)
	}
}

// TestControlAPIRoundTrip: mutate → inspect over HTTP is coherent — the
// config response reflects the patch, and a later GET /v1/control agrees.
func TestControlAPIRoundTrip(t *testing.T) {
	run, _ := scenario(t)
	srv, cl := obsServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := cl.CreateSession(ctx, SessionSpec{ID: "ctl", Sweep: perTagSweep(run)}); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedThreshold != 0.9 || st.ParkThreshold != 0.75 || st.MaxSessions == 0 {
		t.Fatalf("defaults = %+v", st)
	}
	if st.Live != 1 || len(st.Sessions) != 1 || st.Sessions[0].ID != "ctl" || st.Sessions[0].State != "live" {
		t.Fatalf("session view = %+v", st.Sessions)
	}

	idleMS, shed := int64(45_000), 0.6
	mutated, err := cl.UpdateControl(ctx, ControlPatchJSON{
		IdleMS:        &idleMS,
		ShedThreshold: &shed,
		Search:        &SearchJSON{Mode: "dense", TopK: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutated.IdleMS != idleMS || mutated.ShedThreshold != 0.6 {
		t.Fatalf("mutation response = %+v", mutated)
	}
	if mutated.Search == nil || mutated.Search.Mode != "dense" || mutated.Search.TopK != 2 {
		t.Fatalf("search in response = %+v", mutated.Search)
	}

	again, err := cl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.IdleMS != idleMS || again.ShedThreshold != 0.6 || again.Search == nil {
		t.Fatalf("mutation did not persist: %+v", again)
	}
	// The serving loop reads the same knob the control plane wrote.
	if got := srv.reg.IdleTimeout(); got != 45*time.Second {
		t.Fatalf("registry idle = %v", got)
	}

	// Clearing the search default with the "default" sentinel mode.
	cleared, err := cl.UpdateControl(ctx, ControlPatchJSON{Search: &SearchJSON{Mode: "default"}})
	if err != nil {
		t.Fatal(err)
	}
	if cleared.Search != nil {
		t.Fatalf("search not cleared: %+v", cleared.Search)
	}

	// An invalid patch is a 400 with the envelope's bad_request code.
	badIdle := int64(-5)
	if _, err := cl.UpdateControl(ctx, ControlPatchJSON{IdleMS: &badIdle}); err == nil {
		t.Fatal("negative idle accepted over HTTP")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Fatalf("invalid patch error = %v", err)
		}
	}
}

// TestOverloadAdmission: once measured demand exceeds the configured
// capacity, new sessions are refused with an OverloadError carrying a
// positive Retry-After, while sessions under the hard cap and score are
// admitted; disabling the threshold re-admits.
func TestOverloadAdmission(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{
		// A capacity of one search evaluation per second: any fed
		// session saturates the score.
		Capacity: Capacity{SearchEvalsPerSec: 1},
	})
	sess, err := reg.Open(SessionSpec{ID: "hog", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cost meters BEFORE the work happens — rates are deltas
	// between samples — then sample again once the evals have landed.
	// Both stamps track the wall clock so admission reuses the cache.
	reg.RefreshCongestion(time.Now())
	feedSession(t, run, sess)
	score := reg.RefreshCongestion(time.Now())
	if score.Score < 1 {
		t.Fatalf("score = %v after saturating evals", score.Score)
	}
	if score.Components.SearchEvals < 1 {
		t.Fatalf("components = %+v", score.Components)
	}

	_, err = reg.Open(SessionSpec{ID: "refused", Sweep: perTagSweep(run)})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open under overload: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload error carries no retry hint: %v", err)
	}
	if reg.metrics.AdmissionRejected.Load() == 0 || reg.metrics.Shed.Load() == 0 {
		t.Fatal("admission rejection not counted")
	}

	// Negative threshold disables score shedding; the session admits.
	off := -1.0
	if err := reg.ApplyKnobs(KnobPatch{ShedThreshold: &off}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(SessionSpec{ID: "admitted", Sweep: perTagSweep(run)}); err != nil {
		t.Fatalf("open with shedding disabled: %v", err)
	}
}

// TestParkUnderPressureOrdersByCost: the pressure loop parks the
// lowest-cost durable sessions first and stops once the score clears
// the threshold (here capacity is saturated, so it parks until no
// durable live session remains).
func TestParkUnderPressureOrdersByCost(t *testing.T) {
	run, _ := scenario(t)
	reg := walControlRegistry(t, t.TempDir(), RegistryConfig{
		Capacity: Capacity{SearchEvalsPerSec: 1},
	})
	cheap, err := reg.Open(SessionSpec{ID: "cheap", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	costly, err := reg.Open(SessionSpec{ID: "costly", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	// Seed the meters, then feed: the cheap session sees a sliver of
	// the stream, the costly one all of it — its eval rate dominates.
	reg.RefreshCongestion(time.Now())
	for _, rep := range merged[:len(merged)/8] {
		if err := cheap.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := cheap.Flush(); err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, costly)

	now := time.Now()
	if s := reg.RefreshCongestion(now); s.Score < 1 {
		t.Fatalf("score = %v, want saturated", s.Score)
	}
	parked := reg.ParkUnderPressure(now)
	if len(parked) != 2 || parked[0] != "cheap" || parked[1] != "costly" {
		t.Fatalf("parked %v, want [cheap costly]", parked)
	}
	for _, id := range []string{"cheap", "costly"} {
		s, ok := reg.Get(id)
		if !ok || s.State() != "recovered" {
			t.Fatalf("session %s not parked", id)
		}
	}
	if reg.metrics.SessionsParked.Load() != 2 {
		t.Fatalf("parked counter = %d", reg.metrics.SessionsParked.Load())
	}
	// With nothing left to shed the loop must terminate empty-handed,
	// not spin.
	if again := reg.ParkUnderPressure(now); len(again) != 0 {
		t.Fatalf("second pass parked %v", again)
	}
}

// TestParkResumeRetraceDeterminism is the tentpole acceptance gate: a
// session parked and resumed must lose nothing — its retrace stays
// byte-identical to an unkilled control session fed the same stream,
// and its log keeps appending past the retained head after resume.
func TestParkResumeRetraceDeterminism(t *testing.T) {
	run, _ := scenario(t)
	reg := walControlRegistry(t, t.TempDir(), RegistryConfig{})
	control, err := reg.Open(SessionSpec{ID: "control", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := reg.Open(SessionSpec{ID: "victim", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, control)
	feedSession(t, run, victim)

	if err := reg.Park("victim"); err != nil {
		t.Fatal(err)
	}
	parked, _ := reg.Get("victim")
	if parked.State() != "recovered" {
		t.Fatalf("state after park = %q", parked.State())
	}
	if err := reg.Park("victim"); err != nil {
		t.Fatalf("re-park of a parked session must be idempotent: %v", err)
	}
	headAtPark := parked.WALSeq()
	if headAtPark == 0 {
		t.Fatal("parked session has no retained head")
	}

	// Parked: the record still serves retrace, and it matches the
	// unkilled control byte for byte.
	ctrlRes, _, err := control.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	parkRes, _, err := parked.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	compareRetraces(t, "parked vs control", ctrlRes, parkRes)

	resumed, err := reg.Resume("victim")
	if err != nil {
		t.Fatal(err)
	}
	if resumed.State() != "live" {
		t.Fatalf("state after resume = %q", resumed.State())
	}
	if got := resumed.WALSeq(); got != headAtPark {
		t.Fatalf("resume moved the head: %d -> %d", headAtPark, got)
	}
	if reg.metrics.SessionsResumed.Load() != 1 {
		t.Fatal("resume counter not incremented")
	}

	// The resumed session accepts new ingest and its log appends past
	// the retained head rather than truncating it.
	if err := resumed.Offer(realtime.MergeStreams(run.ReportsRF...)[len(realtime.MergeStreams(run.ReportsRF...))-1]); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := resumed.WALSeq(); got <= headAtPark {
		t.Fatalf("log did not advance after resume: %d <= %d", got, headAtPark)
	}

	// The full record — pre-park prefix plus post-resume appends — is
	// one coherent stream: retrace covers it without error, twice, and
	// the two runs agree (determinism of the resumed record).
	res1, head1, err := resumed.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, head2, err := resumed.Retrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if head1 != head2 || head1 <= headAtPark {
		t.Fatalf("retrace heads %d/%d, want equal and past %d", head1, head2, headAtPark)
	}
	compareRetraces(t, "resumed run1 vs run2", res1, res2)

	// Resuming a live session refuses.
	if _, err := reg.Resume("victim"); !errors.Is(err, ErrNotParked) {
		t.Fatalf("resume of live session: %v", err)
	}
}

func compareRetraces(t *testing.T, label string, a, b []engine.TagResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d tags vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("%s: tag %s: %v / %v", label, a[i].Tag, a[i].Err, b[i].Err)
		}
		if a[i].Tag != b[i].Tag {
			t.Fatalf("%s: tag order %s vs %s", label, a[i].Tag, b[i].Tag)
		}
		if !bytes.Equal(gobBytes(t, a[i].Result), gobBytes(t, b[i].Result)) {
			t.Errorf("%s: tag %s: retraces differ", label, a[i].Tag)
		}
	}
}

// TestExpireRetained: a parked record untouched past the retention
// deadline is forgotten and its log deleted; touching it (retrace)
// re-arms the clock.
func TestExpireRetained(t *testing.T) {
	run, _ := scenario(t)
	reg := walControlRegistry(t, t.TempDir(), RegistryConfig{})
	sess, err := reg.Open(SessionSpec{ID: "fade", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	if err := reg.Park("fade"); err != nil {
		t.Fatal(err)
	}

	// Within the deadline nothing expires.
	if ids := reg.ExpireRetained(time.Now().Add(time.Minute), time.Hour); len(ids) != 0 {
		t.Fatalf("expired %v before the deadline", ids)
	}
	// Retain 0 means forever.
	if ids := reg.ExpireRetained(time.Now().Add(1000*time.Hour), 0); len(ids) != 0 {
		t.Fatalf("retain=0 expired %v", ids)
	}
	ids := reg.ExpireRetained(time.Now().Add(2*time.Hour), time.Hour)
	if len(ids) != 1 || ids[0] != "fade" {
		t.Fatalf("ExpireRetained = %v, want [fade]", ids)
	}
	if _, ok := reg.Get("fade"); ok {
		t.Fatal("expired record still registered")
	}
	if reg.metrics.SessionsRetained.Load() != 0 {
		t.Fatalf("retained gauge = %d", reg.metrics.SessionsRetained.Load())
	}
	if reg.WALUsage().Sessions != 0 {
		t.Fatal("expired record's log not deleted")
	}
}
