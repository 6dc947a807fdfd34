package rfidraw

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/realtime"
	"rfidraw/internal/server"
	"rfidraw/internal/sim"
)

// serveScenario caches one single-word run for the serving tests.
var (
	serveOnce sync.Once
	serveRun  *sim.MultiWordRun
	serveErr  error
)

func serveScenario(t *testing.T) *sim.MultiWordRun {
	t.Helper()
	serveOnce.Do(func() {
		sc, err := sim.New(sim.Config{Seed: 11})
		if err != nil {
			serveErr = err
			return
		}
		serveRun, serveErr = sc.RunWords([]string{"hi"}, []geom.Vec2{{X: 0.6, Z: 1.0}})
	})
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	return serveRun
}

// TestOpenSessionLive: an in-process session traces a live report stream
// and delivers points (and the end marker) to a subscriber.
func TestOpenSessionLive(t *testing.T) {
	run := serveScenario(t)
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sess, err := sys.OpenSession(SessionSpec{ID: "live", Sweep: run.SweepInterval})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() != "live" {
		t.Fatalf("ID = %q", sess.ID())
	}
	sub, err := sess.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	var points, ends int
	var lastTag string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			switch ev.Type {
			case "point":
				points++
				lastTag = ev.Tag
			case "end":
				ends++
			}
		}
	}()

	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if err := sess.Offer(ReaderReport{
			Time: rep.Time, ReaderID: rep.ReaderID, Antenna: rep.AntennaID,
			EPC: rep.EPC.String(), Phase: rep.PhaseRad, Power: rep.PowerDB,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close() // idempotent
	<-done
	if points == 0 {
		t.Fatal("no live points delivered")
	}
	if lastTag != run.Tags[0].EPC.String() {
		t.Fatalf("point tag = %q, want %q", lastTag, run.Tags[0].EPC.String())
	}
	if ends != 1 {
		t.Fatalf("end events = %d, want 1", ends)
	}
	if _, err := sys.OpenSession(SessionSpec{ID: "", Sweep: 0}); err == nil {
		t.Fatal("OpenSession with zero sweep should fail")
	}
}

// TestSystemCloseConcurrent pins the documented Close contract: Close is
// idempotent, safe from several goroutines at once, and does not touch
// batch tracing — TraceMany and Trace calls racing it, and calls after
// it, all return full results.
func TestSystemCloseConcurrent(t *testing.T) {
	run := serveScenario(t)
	sys, err := New(Config{PlaneDistanceM: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenSession(SessionSpec{ID: "open", Sweep: run.SweepInterval}); err != nil {
		t.Fatal(err)
	}
	samples := publicSamples(run.SamplesRF[0])
	key := run.Tags[0].EPC.String()
	streams := map[string][]Sample{key: samples, key + "-copy": samples}
	want, err := sys.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	full := func(label string, got *Result) {
		if got == nil || len(got.Trajectory) != len(want.Trajectory) {
			t.Errorf("%s: not the full result", label)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			got, err := sys.TraceMany(streams)
			if err != nil {
				t.Errorf("TraceMany: %v", err)
			}
			full("TraceMany", got[key])
			full("TraceMany", got[key+"-copy"])
		}()
		go func() {
			defer wg.Done()
			got, err := sys.Trace(samples)
			if err != nil {
				t.Errorf("Trace: %v", err)
			}
			full("Trace", got)
		}()
		go func() {
			defer wg.Done()
			if err := sys.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatalf("final Close: %v", err)
	}
	got, err := sys.TraceMany(streams)
	if err != nil {
		t.Fatalf("TraceMany after Close: %v", err)
	}
	full("TraceMany after Close", got[key])
}

// TestServeSurface boots the daemon layer over a System and checks the
// observability endpoints respond.
func TestServeSurface(t *testing.T) {
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sv, err := sys.NewServer(ServeConfig{HTTPAddr: "127.0.0.1:0", IngestAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get("http://" + sv.HTTPAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
	}
	// An in-process session is visible on the daemon API.
	sess, err := sys.OpenSession(SessionSpec{ID: "visible", Sweep: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	resp, err := http.Get("http://" + sv.HTTPAddr() + "/v1/sessions/visible")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-process session not visible over HTTP: %s", resp.Status)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the server closed the shared registry's sessions.
	if err := sess.Offer(ReaderReport{}); !errors.Is(err, server.ErrSessionClosed) {
		t.Fatalf("Offer after server close: %v", err)
	}
}

// TestServeRejectsImpossibleAcquireBound: an acquisition buffer smaller
// than the warmup must fail server construction with a clear error, not
// silently kill every tag's pipeline at first ingest.
func TestServeRejectsImpossibleAcquireBound(t *testing.T) {
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.NewServer(ServeConfig{
		HTTPAddr: "127.0.0.1:0", IngestAddr: "127.0.0.1:0",
		MaxAcquireBuffer: 2,
	}); err == nil {
		t.Fatal("MaxAcquireBuffer below the warmup must fail NewServer")
	}
}

// TestServeRejectsParkAboveShed: the serving layer's threshold seeds
// pass the runtime-knob rules, effective values included — parking
// must sit below shedding, the 0.9 and 0.75 defaults counted.
func TestServeRejectsParkAboveShed(t *testing.T) {
	for _, cfg := range []ServeConfig{
		{ShedThreshold: 0.5, ParkThreshold: 0.6},
		{ParkThreshold: 0.95},
		{ShedThreshold: 0.5},
	} {
		sys, err := New(Config{PlaneDistanceM: 2})
		if err != nil {
			t.Fatal(err)
		}
		cfg.HTTPAddr, cfg.IngestAddr = "127.0.0.1:0", "127.0.0.1:0"
		if _, err := sys.NewServer(cfg); err == nil {
			t.Errorf("shed %v, park %v: NewServer accepted", cfg.ShedThreshold, cfg.ParkThreshold)
		}
		sys.Close()
	}
}

// TestRetraceSearchOverrides: a retrace's search override is bounded
// like a session's own search — out of range is ErrBadSpec in process
// and 400 bad_request over HTTP — and a (geometry, search) pair no
// session runs is built for its one retrace and not kept, so ten
// distinct in-range overrides retain less heap than one System's
// steering tables.
func TestRetraceSearchOverrides(t *testing.T) {
	run := serveScenario(t)
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sv, err := sys.NewServer(ServeConfig{HTTPAddr: "127.0.0.1:0", IngestAddr: "127.0.0.1:0", DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Start(); err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	sess, err := sys.OpenSession(SessionSpec{ID: "overrides", Sweep: run.SweepInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if err := sess.Offer(ReaderReport{
			Time: rep.Time, ReaderID: rep.ReaderID, Antenna: rep.AntennaID,
			EPC: rep.EPC.String(), Phase: rep.PhaseRad, Power: rep.PowerDB,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []SearchConfig{{TopK: 1001}, {Levels: 256}, {TopK: -1}, {Mode: 7}} {
		if _, _, err := sess.Retrace(&bad); !errors.Is(err, server.ErrBadSpec) {
			t.Fatalf("Retrace(%+v) = %v, want ErrBadSpec", bad, err)
		}
	}
	resp, err := http.Post("http://"+sv.HTTPAddr()+"/v1/sessions/overrides/retrace", "application/json",
		strings.NewReader(`{"search":{"top_k":1001}}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Fatalf("HTTP retrace with top_k 1001: %s, code %q (%v), want 400 bad_request", resp.Status, env.Error.Code, err)
	}

	// Live heap after two collections: the second frees what sync.Pool
	// victim caches still held through the first.
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	one, err := server.SystemFor(sys.sys, "", &SearchConfig{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	systemSize := heap() - before
	runtime.KeepAlive(one)
	before = heap()
	for k := 11; k <= 20; k++ {
		res, _, err := sess.Retrace(&SearchConfig{TopK: k})
		if err != nil || len(res) == 0 {
			t.Fatalf("Retrace(TopK %d): %d results, %v", k, len(res), err)
		}
	}
	if retained := heap() - before; retained >= systemSize {
		t.Fatalf("10 distinct retrace overrides retain %d bytes of heap, one System is %d", retained, systemSize)
	}
}
