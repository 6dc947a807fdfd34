package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

// testRun builds one cached multi-tag scenario per tag count.
var (
	testRunsMu sync.Mutex
	testRuns   = map[int]*sim.MultiWordRun{}
)

func multiRun(t testing.TB, tags int) *sim.MultiWordRun {
	t.Helper()
	testRunsMu.Lock()
	defer testRunsMu.Unlock()
	if r, ok := testRuns[tags]; ok {
		return r
	}
	sc, err := sim.New(sim.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"hi", "go", "on", "it", "at", "to", "in", "up"}
	texts := make([]string, tags)
	starts := make([]geom.Vec2, tags)
	for i := 0; i < tags; i++ {
		texts[i] = words[i%len(words)]
		starts[i] = geom.Vec2{X: 0.4 + 0.35*float64(i%5), Z: 0.6 + 0.35*float64(i/5%3)}
	}
	run, err := sc.RunWords(texts, starts)
	if err != nil {
		t.Fatal(err)
	}
	testRuns[tags] = run
	return run
}

// testSystem builds the standard deployment's positioning system once
// for every test in the package.
var testSystem = sync.OnceValues(func() (*core.System, error) {
	return core.NewSystem(nil, core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
})

func system(t testing.TB) *core.System {
	t.Helper()
	sys, err := testSystem()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.System == nil {
		cfg.System = system(t)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// streamInto builds an engine from cfg, replays both readers' raw report
// streams, time-merged, into it and returns per-tag collected positions.
func streamInto(t *testing.T, cfg Config, run *sim.MultiWordRun) (*Engine, map[string][]realtime.Position) {
	t.Helper()
	var mu sync.Mutex
	got := map[string][]realtime.Position{}
	cfg.OnUpdate = func(u Update) {
		mu.Lock()
		defer mu.Unlock()
		got[u.Tag] = append(got[u.Tag], u.Positions...)
	}
	e := newEngine(t, cfg)
	merged := realtime.MergeStreams(run.ReportsRF...)
	for _, rep := range merged {
		if err := e.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, got
}

// TestStreamingMultiTag drives the live path end to end: all tags' raw
// reports interleaved on the wire, each tracked to a trajectory close to
// its ground truth.
func TestStreamingMultiTag(t *testing.T) {
	run := multiRun(t, 3)
	e, got := streamInto(t, Config{
		Shards: 4,
		// Airtime is split three ways, so each tag's effective sweep
		// period triples.
		SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
	}, run)
	if len(got) != len(run.Tags) {
		t.Fatalf("tracked %d tags, want %d", len(got), len(run.Tags))
	}
	for i, tag := range run.Tags {
		ps := got[tag.EPC.String()]
		if len(ps) < 10 {
			t.Fatalf("tag %d: only %d live positions", i, len(ps))
		}
		pts := make([]traj.Point, len(ps))
		for j, p := range ps {
			pts[j] = traj.Point{T: p.Time, Pos: p.Pos}
		}
		med, err := traj.MedianError(run.Truths[i], traj.Trajectory{Points: pts}, traj.AlignInitial, 64)
		if err != nil {
			t.Fatal(err)
		}
		if med > 0.25 {
			t.Fatalf("tag %d: live shape error %.1f cm", i, med*100)
		}
	}
	stats := e.Stats()
	if len(stats) != len(run.Tags) {
		t.Fatalf("stats for %d tags, want %d", len(stats), len(run.Tags))
	}
	for _, st := range stats {
		if st.Err != nil {
			t.Fatalf("tag %s: %v", st.Tag, st.Err)
		}
		if !st.Started || st.Positions == 0 {
			t.Fatalf("tag %s: started=%v positions=%d", st.Tag, st.Started, st.Positions)
		}
	}
}

// TestStreamingAllocs bounds the live path's allocations per stream:
// offering the 8-tag run's reports and closing the engine allocates for
// the trackers, their hypotheses and each acquisition, not per report
// and not per Offer call. The stream goes in once a report per call and
// once in 16-report calls, the serving session's batch shape. The engines
// share one prebuilt System, so the count leaves out the steering
// tables, and a first, cold pass fills the shard kits. Under the race
// detector sync.Pool drops items at random, so a single pass can read
// more; the bound holds the fewest over up to 20 warm passes.
func TestStreamingAllocs(t *testing.T) {
	run := multiRun(t, 8)
	merged := realtime.MergeStreams(run.ReportsRF...)
	sys := system(t)
	stream := func(shards, batch int) uint64 {
		e, err := New(Config{
			Shards:        shards,
			System:        sys,
			SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
		})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < len(merged); i += batch {
			if err := e.Offer(merged[i:min(i+batch, len(merged))]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, c := range []struct {
		shards, batch int
		max           uint64
	}{{1, 1, 160}, {2, 1, 165}, {1, 16, 160}, {2, 16, 165}} {
		stream(c.shards, c.batch)
		fewest := stream(c.shards, c.batch)
		for pass := 1; pass < 20 && fewest > c.max; pass++ {
			fewest = min(fewest, stream(c.shards, c.batch))
		}
		if fewest > c.max {
			t.Errorf("%d shards, %d reports per call: streaming %d reports allocates %d times, want ≤ %d",
				c.shards, c.batch, len(merged), fewest, c.max)
		}
	}
}

// TestStreamingTagAppearsMidStream delays one tag's reports: the engine
// must spin up its pipeline at first sight and still trace it.
func TestStreamingTagAppearsMidStream(t *testing.T) {
	run := multiRun(t, 2)
	late := run.Tags[1].EPC
	// Drop the late tag's first 500 ms of reports.
	cutoff := 500 * time.Millisecond
	var filtered []rfid.Report
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if rep.EPC == late && rep.Time < cutoff {
			continue
		}
		filtered = append(filtered, rep)
	}
	var mu sync.Mutex
	got := map[string]int{}
	e := newEngine(t, Config{
		Shards:        3,
		SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
		OnUpdate: func(u Update) {
			mu.Lock()
			defer mu.Unlock()
			got[u.Tag] += len(u.Positions)
			for _, p := range u.Positions {
				if u.Tag == late.String() && p.Time < cutoff {
					t.Errorf("late tag emitted position at %v before it appeared", p.Time)
				}
			}
		},
	})
	for _, rep := range filtered {
		if err := e.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got[run.Tags[0].EPC.String()] < 10 {
		t.Fatalf("early tag: %d positions", got[run.Tags[0].EPC.String()])
	}
	if got[late.String()] < 5 {
		t.Fatalf("late tag: %d positions", got[late.String()])
	}
}

// TestStreamingTagGoesSilent cuts one tag's reports mid-stream (it leaves
// the field): the other tag must be unaffected, and the silent tag simply
// stops emitting.
func TestStreamingTagGoesSilent(t *testing.T) {
	run := multiRun(t, 2)
	silent := run.Tags[1].EPC
	cutoff := 600 * time.Millisecond
	var filtered []rfid.Report
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if rep.EPC == silent && rep.Time >= cutoff {
			continue
		}
		filtered = append(filtered, rep)
	}
	var mu sync.Mutex
	var lastSilent time.Duration
	counts := map[string]int{}
	e := newEngine(t, Config{
		Shards:        2,
		SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
		OnUpdate: func(u Update) {
			mu.Lock()
			defer mu.Unlock()
			counts[u.Tag] += len(u.Positions)
			if u.Tag == silent.String() {
				for _, p := range u.Positions {
					if p.Time > lastSilent {
						lastSilent = p.Time
					}
				}
			}
		},
	})
	for _, rep := range filtered {
		if err := e.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if counts[run.Tags[0].EPC.String()] < 10 {
		t.Fatalf("surviving tag: %d positions", counts[run.Tags[0].EPC.String()])
	}
	// The silent tag may coast briefly on held phases but must stop soon
	// after its reports end.
	if lastSilent > cutoff+run.SweepInterval*time.Duration(4*len(run.Tags)) {
		t.Fatalf("silent tag still emitting at %v, cut off at %v", lastSilent, cutoff)
	}
}

// TestStreamingRequiresSweepInterval: an engine only streams, so both
// constructors refuse a config without the readers' sweep period or a
// positioning system. New also refuses RecordTrace, which grows with the
// stream: it is a Replayer option only.
func TestStreamingRequiresSweepInterval(t *testing.T) {
	sys := system(t)
	for _, c := range []struct {
		cfg      Config
		replayer bool // NewReplayer accepts cfg
	}{
		{Config{System: sys}, false},
		{Config{SweepInterval: 25 * time.Millisecond}, false},
		{Config{System: sys, SweepInterval: 25 * time.Millisecond, RecordTrace: true}, true},
	} {
		if e, err := New(c.cfg); err == nil {
			e.Close()
			t.Errorf("New accepted %+v", c.cfg)
		}
		if _, err := NewReplayer(c.cfg); (err == nil) != c.replayer {
			t.Errorf("NewReplayer(%+v): %v", c.cfg, err)
		}
	}
}

// TestAcquireBoundBelowWarmupRejected: both constructors refuse a warmup
// buffer bound that would fail every tag at its first report.
func TestAcquireBoundBelowWarmupRejected(t *testing.T) {
	cfg := Config{System: system(t), SweepInterval: 25 * time.Millisecond, MaxAcquireBuffer: 2}
	if e, err := New(cfg); err == nil {
		e.Close()
		t.Fatal("New accepted MaxAcquireBuffer below the warmup")
	}
	if _, err := NewReplayer(cfg); err == nil {
		t.Fatal("NewReplayer accepted MaxAcquireBuffer below the warmup")
	}
}

// TestCloseIdempotent: closing twice is fine, use-after-close errors.
func TestCloseIdempotent(t *testing.T) {
	e := newEngine(t, Config{Shards: 2, SweepInterval: 25 * time.Millisecond})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Offer(rfid.Report{}); err == nil {
		t.Fatal("Offer after Close should error")
	}
}

// TestShardAffinity: an EPC always lands on the same shard, and
// distribution over many EPCs touches every shard.
func TestShardAffinity(t *testing.T) {
	e := newEngine(t, Config{Shards: 4, SweepInterval: 25 * time.Millisecond})
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		var epc rfid.EPC
		epc[10], epc[11] = byte(i>>8), byte(i)
		a := e.shardOfEPC(epc)
		if b := e.shardOfEPC(epc); a != b {
			t.Fatalf("EPC %s hashed to shards %d and %d", epc, a, b)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 EPCs used only %d/4 shards", len(seen))
	}
}
