package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
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

func coreConfig() core.Config {
	return core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()}
}

func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Core.Plane.Y == 0 {
		cfg.Core = coreConfig()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// encodeResult serialises a trace result so byte-identity can be asserted.
func encodeResult(t testing.TB, r *core.TraceResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchDeterministicAcrossShardCounts is the engine's core guarantee:
// for identical input, the concurrent engine's output is byte-identical to
// the sequential single-threaded path, for any shard count.
func TestBatchDeterministicAcrossShardCounts(t *testing.T) {
	run := multiRun(t, 3)
	jobs := make([]TagJob, len(run.Tags))
	for i, tag := range run.Tags {
		jobs[i] = TagJob{Tag: tag.EPC.String(), Samples: run.SamplesRF[i]}
	}

	// Sequential reference: a plain core.System, no engine.
	sys, err := core.NewSystem(nil, coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		res, err := sys.Trace(j.Samples)
		if err != nil {
			t.Fatalf("sequential tag %d: %v", i, err)
		}
		want[i] = encodeResult(t, res)
	}

	for _, shards := range []int{1, 2, 8} {
		e := newEngine(t, Config{Shards: shards})
		results := e.TraceBatch(jobs)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("shards=%d tag %d: %v", shards, i, r.Err)
			}
			if r.Tag != jobs[i].Tag {
				t.Fatalf("shards=%d result %d keyed %q, want %q", shards, i, r.Tag, jobs[i].Tag)
			}
			if !bytes.Equal(encodeResult(t, r.Result), want[i]) {
				t.Fatalf("shards=%d tag %d: engine output differs from sequential path", shards, i)
			}
		}
	}
}

// TestBatchMoreShardsThanTags checks nothing wedges or is lost when most
// shards have no work.
func TestBatchMoreShardsThanTags(t *testing.T) {
	run := multiRun(t, 2)
	e := newEngine(t, Config{Shards: 16})
	jobs := []TagJob{
		{Tag: run.Tags[0].EPC.String(), Samples: run.SamplesRF[0]},
		{Tag: run.Tags[1].EPC.String(), Samples: run.SamplesRF[1]},
	}
	for i, r := range e.TraceBatch(jobs) {
		if r.Err != nil {
			t.Fatalf("tag %d: %v", i, r.Err)
		}
		if r.Result.Best.Trajectory.Len() < 5 {
			t.Fatalf("tag %d: only %d points", i, r.Result.Best.Trajectory.Len())
		}
	}
}

// TestBatchConcurrentCallers exercises TraceBatch from several goroutines
// against one engine (run under -race).
func TestBatchConcurrentCallers(t *testing.T) {
	run := multiRun(t, 3)
	e := newEngine(t, Config{Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]TagJob, len(run.Tags))
			for i, tag := range run.Tags {
				jobs[i] = TagJob{Tag: tag.EPC.String(), Samples: run.SamplesRF[i]}
			}
			for _, r := range e.TraceBatch(jobs) {
				if r.Err != nil {
					t.Error(r.Err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestTraceSingleTagWrapper checks the synchronous single-tag wrapper is
// the sequential path: same bytes as a direct core.System.Trace.
func TestTraceSingleTagWrapper(t *testing.T) {
	run := multiRun(t, 1)
	sys, err := core.NewSystem(nil, coreConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Trace(run.SamplesRF[0])
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Config{Shards: 1})
	got, err := e.Trace(run.SamplesRF[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResult(t, got), encodeResult(t, want)) {
		t.Fatal("single-tag engine wrapper differs from direct core path")
	}
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
// once in 16-report calls, the serving pump's batch shape. The engines
// share one prebuilt System, so the count leaves out the steering
// tables, and a first, cold pass fills the shard kits. Under the race
// detector sync.Pool drops items at random, so a single pass can read
// more; the bound holds the fewest over up to 20 warm passes.
func TestStreamingAllocs(t *testing.T) {
	run := multiRun(t, 8)
	merged := realtime.MergeStreams(run.ReportsRF...)
	sys, err := core.NewSystem(nil, coreConfig())
	if err != nil {
		t.Fatal(err)
	}
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

// TestStreamingRequiresSweepInterval: batch-only engines reject Offer.
func TestStreamingRequiresSweepInterval(t *testing.T) {
	e := newEngine(t, Config{Shards: 2})
	if err := e.Offer(rfid.Report{}); err == nil {
		t.Fatal("Offer without SweepInterval should error")
	}
}

// TestAcquireBoundBelowWarmupRejected: both constructors refuse a warmup
// buffer bound that would fail every tag at its first report.
func TestAcquireBoundBelowWarmupRejected(t *testing.T) {
	cfg := Config{Core: coreConfig(), SweepInterval: 25 * time.Millisecond, MaxAcquireBuffer: 2}
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

// TestCloseConcurrent: several goroutines racing Close against in-flight
// TraceBatch calls must neither panic nor deadlock — every batch either
// completes normally or reports "engine: closed" per job.
func TestCloseConcurrent(t *testing.T) {
	run := multiRun(t, 2)
	e := newEngine(t, Config{Shards: 4})
	jobs := []TagJob{
		{Tag: run.Tags[0].EPC.String(), Samples: run.SamplesRF[0]},
		{Tag: run.Tags[1].EPC.String(), Samples: run.SamplesRF[1]},
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, r := range e.TraceBatch(jobs) {
				if r.Err == nil && r.Result == nil {
					t.Error("TraceBatch returned neither result nor error")
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("Close after concurrent closes: %v", err)
	}
}

// TestShardAffinity: equal keys land on the same shard, and distribution
// over many keys touches every shard.
func TestShardAffinity(t *testing.T) {
	e := newEngine(t, Config{Shards: 4})
	seen := map[*shard]bool{}
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("tag-%03d", i)
		a := e.shardFor(key)
		b := e.shardFor(key)
		if a != b {
			t.Fatalf("key %q hashed to two shards", key)
		}
		seen[a] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 keys used only %d/4 shards", len(seen))
	}
}

// TestTraceBatchDuringClose races batch callers against Close (run under
// -race): no send-on-closed-channel panic, and post-close jobs come back
// with a clean error instead of wedging.
func TestTraceBatchDuringClose(t *testing.T) {
	run := multiRun(t, 1)
	e := newEngine(t, Config{Shards: 2})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res := e.TraceBatch([]TagJob{{Tag: "x", Samples: run.SamplesRF[0]}})
				if res[0].Err != nil {
					if res[0].Result != nil {
						t.Error("closed-engine job returned both result and error")
					}
					return // engine closed underneath us: the contract held
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	res := e.TraceBatch([]TagJob{{Tag: "y", Samples: run.SamplesRF[0]}})
	if res[0].Err == nil {
		t.Fatal("TraceBatch after Close should error per job")
	}
}
