package server

import (
	"context"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/vote"
)

// testScenario caches one simulated two-tag writing session for the whole
// package (scenario generation dominates test time otherwise).
var (
	scenarioOnce sync.Once
	scenarioRun  *sim.MultiWordRun
	scenarioSys  *core.System
	scenarioErr  error
)

func scenario(t testing.TB) (*sim.MultiWordRun, *core.System) {
	t.Helper()
	scenarioOnce.Do(func() {
		sc, err := sim.New(sim.Config{Seed: 7})
		if err != nil {
			scenarioErr = err
			return
		}
		scenarioRun, scenarioErr = sc.RunWords(
			[]string{"hi", "go"},
			[]geom.Vec2{{X: 0.5, Z: 1.0}, {X: 1.6, Z: 1.4}},
		)
		if scenarioErr != nil {
			return
		}
		scenarioSys, scenarioErr = core.NewSystem(nil, core.Config{
			Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion(),
		})
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	return scenarioRun, scenarioSys
}

// perTagSweep is the scenario's streaming cadence (airtime split two
// ways).
func perTagSweep(run *sim.MultiWordRun) time.Duration {
	return run.SweepInterval * time.Duration(len(run.Tags))
}

// geometrySearchSystem resolves a (geometry, search) pair for test
// factories through SystemFor over the cached scenario system, exactly
// as serve.go's factories do, so live engines and replayers configure
// identically.
func geometrySearchSystem(t testing.TB, geometry string, search *vote.SearchConfig) (*core.System, error) {
	_, sys := scenario(t)
	return SystemFor(sys, geometry, search)
}

func testFactory(t testing.TB) EngineFactory {
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
		})
	}
}

func testRegistry(t testing.TB, cfg RegistryConfig) *Registry {
	t.Helper()
	if cfg.NewEngine == nil {
		cfg.NewEngine = testFactory(t)
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

// serve starts a server over reg on ephemeral ports and closes it with
// the test.
func serve(t testing.TB, reg *Registry) *Server {
	t.Helper()
	srv := New(reg, "127.0.0.1:0", "127.0.0.1:0")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// feedSession replays the scenario's merged report stream into a session
// in-process and flushes.
func feedSession(t testing.TB, run *sim.MultiWordRun, sess *Session) {
	t.Helper()
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if err := sess.Offer(rep); err != nil {
			t.Fatalf("Offer: %v", err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// awaitIngested waits until the session's pump has taken in n reports.
// The ingest gateway reads a reader socket on its own goroutine, so
// reports a client has sent — even after closing its stream — can still
// be in flight; a drain that overtakes them, and a delete after it, can
// leave a subscriber's stream with nothing but "end".
func awaitIngested(t *testing.T, srv *Server, id string, n int64) {
	t.Helper()
	sess, ok := srv.reg.Get(id)
	if !ok {
		t.Fatalf("session %s vanished", id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for sess.reports.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("session %s took in %d of %d reports sent", id, sess.reports.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitCaughtUp waits until no subscriber of the session is still
// replaying its WAL catch-up. Closing the session cancels a replay in
// progress, which cuts that subscriber's stream short.
func awaitCaughtUp(t *testing.T, srv *Server, id string) {
	t.Helper()
	sess, ok := srv.reg.Get(id)
	if !ok {
		t.Fatalf("session %s vanished", id)
	}
	catchingUp := func() int {
		sess.emitMu.Lock()
		defer sess.emitMu.Unlock()
		n := 0
		for sub := range sess.subs {
			if sub.catchingUp {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(30 * time.Second)
	for n := catchingUp(); n > 0; n = catchingUp() {
		if time.Now().After(deadline) {
			t.Fatalf("session %s: %d subscribers still catching up", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPumpIdleTickWaitsForQueuedInput: a housekeeping tick that finds
// input queued is not silence. The test plays the pump's goroutine on a
// session shell, so the pump's select cannot race it: with reports held
// in the reorder window and one more waiting in the inbox, two ticks must
// not drain; once the pump has taken the input, two ticks must.
func TestPumpIdleTickWaitsForQueuedInput(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	s := sessionShell(reg, SessionSpec{ID: "pump-idle"}, resumeState{})
	s.handleSweep(perTagSweep(run))
	if s.eng == nil {
		t.Fatal("no engine built")
	}
	defer s.eng.Close()
	reps := realtime.MergeStreams(run.ReportsRF...)
	for _, rep := range reps[:8] {
		s.handleReport(rep, 0)
	}
	held := s.reorder.Len()
	if held == 0 {
		t.Fatal("no report held in the reorder window")
	}
	s.inbox <- ingestItem{rep: reps[8]}
	var clock pumpClock
	s.tick(&clock)
	s.tick(&clock)
	if s.reorder.Len() != held {
		t.Fatalf("two ticks with input queued drained the session: %d held reports became %d", held, s.reorder.Len())
	}
	s.handle(<-s.inbox)
	clock.idle = 0 // what the pump does on every inbox item
	s.tick(&clock)
	if s.reorder.Len() == 0 {
		t.Fatal("one idle tick drained the session")
	}
	s.tick(&clock)
	if s.reorder.Len() != 0 {
		t.Fatalf("two idle ticks left %d reports in the reorder window", s.reorder.Len())
	}
}

// drainCount consumes a subscriber channel until it closes, counting
// events by type.
func drainCount(sub *Subscriber, wg *sync.WaitGroup, out *map[string]int, mu *sync.Mutex) {
	defer wg.Done()
	for ev := range sub.Events() {
		mu.Lock()
		(*out)[ev.Type]++
		mu.Unlock()
	}
}

// TestSessionLifecycle is the satellite lifecycle test: create → attach
// two subscribers → slow-consumer drop → idle expiry → GC, exercised
// under -race in CI.
func TestSessionLifecycle(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{})
	sess, err := reg.Open(SessionSpec{ID: "life", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(SessionSpec{ID: "life", Sweep: perTagSweep(run)}); err != ErrSessionExists {
		t.Fatalf("duplicate open: %v, want ErrSessionExists", err)
	}

	// Attach two subscribers: a healthy one and a deliberately tiny,
	// never-drained one that must hit the slow-consumer drop policy.
	healthy, err := sess.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sess.Subscribe(SubscribeOptions{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go drainCount(healthy, &wg, &counts, &mu)

	feedSession(t, run, sess)

	if got := sess.points.Load(); got == 0 {
		t.Fatal("session produced no points")
	}
	if slow.Drops() == 0 {
		t.Fatal("slow subscriber (queue 2) should have dropped events")
	}
	if sess.drops.Load() == 0 || reg.Metrics().EventsDropped.Load() == 0 {
		t.Fatal("drop counters not incremented")
	}

	// Detach, then idle-expire: with no readers and no subscribers the GC
	// must collect the session.
	slow.Close()
	slow.Close() // idempotent
	if ids := reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute); len(ids) != 0 {
		t.Fatalf("expired %v while a subscriber is attached", ids)
	}
	healthyDrained := make(chan struct{})
	go func() { wg.Wait(); close(healthyDrained) }()
	healthy.Close()
	<-healthyDrained

	ids := reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute)
	if len(ids) != 1 || ids[0] != "life" {
		t.Fatalf("ExpireIdle = %v, want [life]", ids)
	}
	if _, ok := reg.Get("life"); ok {
		t.Fatal("expired session still registered")
	}
	if reg.Metrics().SessionsExpired.Load() != 1 || reg.Metrics().SessionsActive.Load() != 0 {
		t.Fatal("expiry metrics wrong")
	}
	// The session must be fully closed: offers fail, Close is idempotent.
	if err := sess.Offer(rfid.Report{}); err != ErrSessionClosed {
		t.Fatalf("Offer after expiry: %v", err)
	}
	sess.Close()

	mu.Lock()
	defer mu.Unlock()
	if counts["point"] == 0 {
		t.Fatal("healthy subscriber saw no points")
	}
}

// TestEventsResumesMidBatch: an in-process subscriber's queue carries
// one group-committed batch as one item, and a consumer that stops
// ranging over Events part-way through it gets the rest of the batch, in
// order, on its next range.
func TestEventsResumesMidBatch(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	sess, err := reg.Open(SessionSpec{ID: "mid-batch", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	commit := func(from, to int) {
		sess.emitMu.Lock()
		defer sess.emitMu.Unlock()
		for i := from; i <= to; i++ {
			sess.broadcastLocked(Event{Type: "point", Tag: "pen", T: time.Duration(i)})
		}
		sess.flushEmitLocked()
	}
	commit(1, 3)
	if n := len(sub.ch); n != 1 {
		t.Fatalf("three events queued as %d items, want one batch", n)
	}
	commit(4, 4)
	var got []time.Duration
	for ev := range sub.Events() {
		got = append(got, ev.T)
		break
	}
	for ev := range sub.Events() {
		if got = append(got, ev.T); ev.T == 4 {
			break
		}
	}
	if want := []time.Duration{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("events across the early stop = %v, want %v", got, want)
	}
}

// TestGlyphEvents: strokes separated by stream-time silence produce glyph
// events for the healthy subscriber.
func TestGlyphEvents(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{})
	sess, err := reg.Open(SessionSpec{ID: "glyph", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go drainCount(sub, &wg, &counts, &mu)
	feedSession(t, run, sess)
	reg.Remove("glyph")
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if counts["glyph"] == 0 {
		t.Fatal("no glyph events (strokes should classify at flush)")
	}
	if counts["end"] != 1 {
		t.Fatalf("end events = %d, want 1", counts["end"])
	}
}

// TestAdmissionControl: opens beyond MaxSessions shed with
// ErrSessionLimit and count; subscribers beyond MaxSubscribers shed.
func TestAdmissionControl(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{MaxSessions: 2, MaxSubscribers: 1, NoRecognize: true})
	if _, err := reg.Open(SessionSpec{ID: "a", Sweep: perTagSweep(run)}); err != nil {
		t.Fatal(err)
	}
	sb, err := reg.Open(SessionSpec{ID: "b", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(SessionSpec{ID: "c", Sweep: perTagSweep(run)}); err != ErrSessionLimit {
		t.Fatalf("third open: %v, want ErrSessionLimit", err)
	}
	if reg.Metrics().Shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", reg.Metrics().Shed.Load())
	}
	// Removing a session frees a slot.
	reg.Remove("a")
	if _, err := reg.Open(SessionSpec{ID: "c", Sweep: perTagSweep(run)}); err != nil {
		t.Fatalf("open after free: %v", err)
	}
	sub, err := sb.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sb.Subscribe(SubscribeOptions{}); err != ErrSubscriberLimit {
		t.Fatalf("second subscriber: %v, want ErrSubscriberLimit", err)
	}
}

// TestServerEndToEnd runs the full daemon loop over real sockets: create
// a session over HTTP, stream two readers through the ingest gateway,
// consume the NDJSON stream, check the observability surface, delete.
func TestServerEndToEnd(t *testing.T) {
	run, _ := scenario(t)
	srv := serve(t, testRegistry(t, RegistryConfig{
		// The test replays at 8x, so cross-reader wall skew is
		// amplified 8x in stream time; widen the reorder hold.
		ReorderWindow: 250 * time.Millisecond,
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	id, err := cl.CreateSession(ctx, SessionSpec{ID: "e2e", Sweep: 0})
	if err != nil {
		t.Fatal(err)
	}
	if id != "e2e" || cl.Ingest != srv.IngestAddr() {
		t.Fatalf("create returned id=%q ingest=%q", id, cl.Ingest)
	}
	events, errs, err := cl.Subscribe(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			counts[ev.Type]++
		}
	}()

	const pace = 8
	start := time.Now()
	var wg sync.WaitGroup
	for readerID := range run.ReportsRF {
		wg.Add(1)
		go func(readerID int) {
			defer wg.Done()
			rs, err := cl.DialIngest(id, readerwire.Hello{
				Proto:         readerwire.ProtoVersion,
				ReaderID:      uint8(readerID),
				AntennaCount:  4,
				SweepInterval: perTagSweep(run),
			})
			if err != nil {
				t.Errorf("reader %d: %v", readerID, err)
				return
			}
			defer rs.Close()
			if err := rs.Replay(ctx, run.ReportsRF[readerID], pace, 0, start); err != nil {
				t.Errorf("reader %d replay: %v", readerID, err)
			}
		}(readerID)
	}
	wg.Wait()
	// Let the idle drain close the final sweeps, then inspect and delete.
	time.Sleep(300 * time.Millisecond)

	metricsText, err := cl.FetchMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rfidrawd_sessions_active 1",
		"rfidrawd_reports_total",
		"rfidrawd_points_total",
		"rfidrawd_search_evals_total",
		"rfidrawd_goroutines",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := cl.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	<-done
	select {
	case err := <-errs:
		t.Fatalf("stream error: %v", err)
	default:
	}
	if counts["point"] == 0 {
		t.Fatalf("no point events over the wire (counts=%v)", counts)
	}
	if counts["end"] != 1 {
		t.Fatalf("end events = %d, want 1 (counts=%v)", counts["end"], counts)
	}
	if cl2 := srv.Registry().Len(); cl2 != 0 {
		t.Fatalf("sessions after delete = %d", cl2)
	}
}

// TestIngestReaderReconnect: a reader that disconnects mid-stream and
// reconnects (new conn, new Hello) keeps its session's trackers going.
func TestIngestReaderReconnect(t *testing.T) {
	run, _ := scenario(t)
	srv := serve(t, testRegistry(t, RegistryConfig{
		ReorderWindow: 250 * time.Millisecond,
		NoRecognize:   true,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	id, err := cl.CreateSession(ctx, SessionSpec{ID: "", Sweep: 0})
	if err != nil {
		t.Fatal(err)
	}

	hello := func(readerID int) readerwire.Hello {
		return readerwire.Hello{
			Proto: readerwire.ProtoVersion, ReaderID: uint8(readerID),
			AntennaCount: 4, SweepInterval: perTagSweep(run),
		}
	}
	const pace = 8
	start := time.Now()
	var wg sync.WaitGroup
	// Reader 1 streams straight through; reader 0 drops after the first
	// half (no Bye — a hard disconnect) and reconnects for the rest.
	wg.Add(2)
	go func() {
		defer wg.Done()
		rs, err := cl.DialIngest(id, hello(1))
		if err != nil {
			t.Error(err)
			return
		}
		defer rs.Close()
		if err := rs.Replay(ctx, run.ReportsRF[1], pace, 0, start); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		half := len(run.ReportsRF[0]) / 2
		rs, err := cl.DialIngest(id, hello(0))
		if err != nil {
			t.Error(err)
			return
		}
		if err := rs.Replay(ctx, run.ReportsRF[0][:half], pace, 0, start); err != nil {
			t.Error(err)
		}
		rs.conn.Close() // hard drop, no Bye
		rs2, err := cl.DialIngest(id, hello(0))
		if err != nil {
			t.Error(err)
			return
		}
		defer rs2.Close()
		if err := rs2.Replay(ctx, run.ReportsRF[0][half:], pace, 0, start); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	time.Sleep(300 * time.Millisecond)

	sess, ok := srv.Registry().Get(id)
	if !ok {
		t.Fatal("session gone")
	}
	if sess.points.Load() == 0 {
		t.Fatal("no points across reader reconnect")
	}
}

// TestCloseFastWithLiveSubscriber: a server with an attached stream
// consumer (and an idle half-open ingest conn) must shut down promptly —
// the registry closes first, ending the stream handlers, so http.Shutdown
// does not sit out its timeout.
func TestCloseFastWithLiveSubscriber(t *testing.T) {
	run, _ := scenario(t)
	srv := serve(t, testRegistry(t, RegistryConfig{NoRecognize: true}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	id, err := cl.CreateSession(ctx, SessionSpec{ID: "", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := cl.Subscribe(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// A connection that never completes its preamble handshake.
	idle, err := net.Dial("tcp", srv.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a live subscriber; want prompt", d)
	}
	for range events {
	} // stream must have ended
}

// TestBadSessionID: IDs that cannot travel in URL paths or the ingest
// preamble are rejected at create time.
func TestBadSessionID(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	for _, id := range []string{"a b", "a/b", "a\nb", strings.Repeat("x", 65)} {
		if _, err := reg.Open(SessionSpec{ID: id, Sweep: time.Millisecond}); !errors.Is(err, ErrBadSessionID) {
			t.Errorf("Open(%q) = %v, want ErrBadSessionID", id, err)
		}
	}
	if _, err := reg.Open(SessionSpec{ID: "ok-id_1.2", Sweep: time.Millisecond}); err != nil {
		t.Errorf("Open(ok-id_1.2): %v", err)
	}
}

// TestIngestUnknownSession: the gateway refuses a preamble naming a
// session that does not exist.
func TestIngestUnknownSession(t *testing.T) {
	srv := serve(t, testRegistry(t, RegistryConfig{NoRecognize: true}))
	cl := &Client{Ingest: srv.IngestAddr()}
	if _, err := cl.DialIngest("nope", readerwire.Hello{Proto: readerwire.ProtoVersion, SweepInterval: time.Millisecond}); err == nil {
		// The dial itself may succeed (preamble write buffered); the
		// server must close the conn without creating anything.
		if srv.Registry().Len() != 0 {
			t.Fatal("unknown-session preamble created state")
		}
	}
}
