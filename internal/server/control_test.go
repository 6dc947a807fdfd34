package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/realtime"
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
	cfg.NewEngine = testFactory(t)
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

// TestKnobRoundTrip: UpdateKnobs mutations are visible in the next
// Knobs snapshot, invalid patches are refused whole, and the search
// default can be set and cleared.
func TestKnobRoundTrip(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	k := reg.Knobs()
	if k.IdleMS != (2*time.Minute).Milliseconds() || k.ShedThreshold != 0.9 || k.ParkThreshold != 0.75 {
		t.Fatalf("default knobs = %+v", k)
	}

	if err := reg.UpdateKnobs([]byte(`{"idle_ms":30000,"retain_ms":3600000,
		"shed_threshold":0.5,"park_threshold":0.25,
		"capacity":{"search_evals_per_sec":100},
		"search":{"mode":"dense","top_k":3}}`)); err != nil {
		t.Fatal(err)
	}
	k = reg.Knobs()
	if k.IdleMS != 30_000 || k.RetainMS != 3_600_000 || k.ShedThreshold != 0.5 || k.ParkThreshold != 0.25 {
		t.Fatalf("mutated knobs = %+v", k)
	}
	if k.Capacity.SearchEvalsPerSec != 100 {
		t.Fatalf("capacity = %+v", k.Capacity)
	}
	if k.Search == nil || k.Search.Mode != "dense" || k.Search.TopK != 3 {
		t.Fatalf("search knob = %+v", k.Search)
	}

	// A partial patch leaves everything else alone.
	if err := reg.UpdateKnobs([]byte(`{"shed_threshold":0.8}`)); err != nil {
		t.Fatal(err)
	}
	k = reg.Knobs()
	if k.ShedThreshold != 0.8 || k.IdleMS != 30_000 || k.Search == nil {
		t.Fatalf("partial patch clobbered knobs: %+v", k)
	}

	// Clearing the search default.
	if err := reg.UpdateKnobs([]byte(`{"search":null}`)); err != nil {
		t.Fatal(err)
	}
	if reg.Knobs().Search != nil {
		t.Fatal("search knob not cleared")
	}

	// Invalid values are refused with ErrBadSpec.
	if err := reg.UpdateKnobs([]byte(`{"idle_ms":-1000}`)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("negative idle accepted: %v", err)
	}
	if err := reg.UpdateKnobs([]byte(`{"search":{"top_k":300}}`)); !errors.Is(err, ErrBadSpec) {
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

	// Shedding at 0.6 needs parking below it (the default park is 0.75).
	idleMS := int64(45_000)
	mutated, err := cl.UpdateControl(ctx, map[string]any{
		"idle_ms":        idleMS,
		"shed_threshold": 0.6,
		"park_threshold": 0.3,
		"search":         SearchJSON{Mode: "dense", TopK: 2},
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
	if got := srv.reg.knobs.Load().IdleMS; got != idleMS {
		t.Fatalf("registry idle = %d ms", got)
	}

	// Clearing the search default with a null search.
	cleared, err := cl.UpdateControl(ctx, map[string]any{"search": nil})
	if err != nil {
		t.Fatal(err)
	}
	if cleared.Search != nil {
		t.Fatalf("search not cleared: %+v", cleared.Search)
	}

	// An invalid patch is a 400 with the envelope's bad_request code.
	if _, err := cl.UpdateControl(ctx, map[string]any{"idle_ms": -5}); err == nil {
		t.Fatal("negative idle accepted over HTTP")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
			t.Fatalf("invalid patch error = %v", err)
		}
	}

	// So is a key the daemon does not know — a typo, or a removed knob —
	// at the top level or inside the capacity block; nothing is applied.
	for _, body := range []string{
		`{"idle_ms":30000,"idle_msec":30000}`,
		`{"capacity":{"search_evals_per_sec":7,"wal_bytes_per_sec":1}}`,
	} {
		resp, err := http.Post(cl.BaseURL+"/v1/control/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw, `"bad_request"`) {
			t.Fatalf("patch %s: status %d (%s), want 400 bad_request", body, resp.StatusCode, raw)
		}
	}
	k := srv.reg.Knobs()
	if k.IdleMS != idleMS || k.Capacity.SearchEvalsPerSec == 7 {
		t.Fatalf("refused patch changed knobs: %+v", k)
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
	if err := reg.UpdateKnobs([]byte(`{"shed_threshold":-1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(SessionSpec{ID: "admitted", Sweep: perTagSweep(run)}); err != nil {
		t.Fatalf("open with shedding disabled: %v", err)
	}
}

// TestParkVerbAndOverloadAnswer drives the operator park verb and the
// admission layer's 429 through the HTTP API and Client: a durable live
// session parks to "recovered", a second park is a no-op and a
// memory-only session answers not_durable; a create past the shed
// threshold answers 429 with a backoff, in the envelope and in a
// whole-second Retry-After header.
func TestParkVerbAndOverloadAnswer(t *testing.T) {
	run, _ := scenario(t)
	ctx := context.Background()
	stateOf := func(cl *Client, id string) string {
		t.Helper()
		cs, err := cl.Control(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cs.Sessions {
			if s.ID == id {
				return s.State
			}
		}
		t.Fatalf("session %s not listed", id)
		return ""
	}

	durable := serve(t, walControlRegistry(t, t.TempDir(), RegistryConfig{}))
	cl := &Client{BaseURL: "http://" + durable.HTTPAddr()}
	sess, err := durable.reg.Open(SessionSpec{ID: "parkme", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	for i := 0; i < 2; i++ {
		if err := cl.ParkSession(ctx, "parkme"); err != nil {
			t.Fatalf("park %d: %v", i+1, err)
		}
		if st := stateOf(cl, "parkme"); st != "recovered" {
			t.Fatalf("after park %d: state %q, want recovered", i+1, st)
		}
	}
	if n := durable.reg.Metrics().SessionsParked.Load(); n != 1 {
		t.Fatalf("two parks counted %d parkings, want 1", n)
	}

	memory := serve(t, testRegistry(t, RegistryConfig{}))
	mcl := &Client{BaseURL: "http://" + memory.HTTPAddr()}
	msess, err := memory.reg.Open(SessionSpec{ID: "volatile", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, msess)
	var ae *APIError
	if err := mcl.ParkSession(ctx, "volatile"); !errors.Is(err, ErrNotDurable) || !errors.As(err, &ae) || ae.Code != "not_durable" {
		t.Fatalf("park of a memory-only session: %v, want not_durable", err)
	}

	shed := serve(t, testRegistry(t, RegistryConfig{MaxSessions: 2, ShedThreshold: 0.4, ParkThreshold: -1}))
	scl := &Client{BaseURL: "http://" + shed.HTTPAddr()}
	if _, err := scl.CreateSession(ctx, SessionSpec{ID: "first", Sweep: perTagSweep(run)}); err != nil {
		t.Fatal(err)
	}
	// The control view refreshes the score admission reads: one live
	// session of two puts session_slots, and the score, at 0.5.
	cs, err := scl.Control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Score.Components.SessionSlots != 0.5 || cs.Score.Score < 0.4 {
		t.Fatalf("score %+v, want session_slots 0.5 over the 0.4 threshold", cs.Score)
	}
	_, err = scl.CreateSession(ctx, SessionSpec{ID: "second", Sweep: perTagSweep(run)})
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests || ae.RetryAfter <= 0 {
		t.Fatalf("create past the shed threshold: %v, want a 429 with a backoff", err)
	}
	resp, err := http.Post(scl.BaseURL+"/v1/sessions", "application/json", strings.NewReader(`{"id":"third","sweep_ms":50}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); resp.StatusCode != http.StatusTooManyRequests || err != nil || secs < 1 {
		t.Fatalf("%s with Retry-After %q, want 429 with whole seconds ≥ 1", resp.Status, resp.Header.Get("Retry-After"))
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
