package rfidraw

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
)

// simSamples simulates one word written at (0.6, 1.0) m and returns its
// samples in the public type.
func simSamples(t testing.TB, seed int64, word string) ([]Sample, *sim.WordRun, *sim.Scenario) {
	t.Helper()
	sc, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord(word, geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	return publicSamples(wr.SamplesRF), wr, sc
}

// publicSamples converts internal simulator samples to the public type.
func publicSamples(in []tracing.Sample) []Sample {
	out := make([]Sample, len(in))
	for i, s := range in {
		out[i] = Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing plane distance should error")
	}
	if _, err := New(Config{PlaneDistanceM: 2, CarrierHz: -1}); err == nil {
		// negative carrier falls back to default; construction succeeds
		t.Log("negative carrier tolerated (default used)")
	}
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.sys.Config().CandidateCount; got != 5 {
		t.Fatalf("default CandidateCount = %d, want the documented 5", got)
	}
	ants := sys.AntennaPositions()
	if len(ants) != 8 {
		t.Fatalf("antenna count = %d", len(ants))
	}
	// Antenna 3 is the far corner of the 8λ square.
	want := 8 * WavelengthM(DefaultCarrierHz)
	if math.Abs(ants[3].X-want) > 1e-9 || math.Abs(ants[3].Z-want) > 1e-9 {
		t.Fatalf("antenna 3 at (%v, %v), want (%v, %v)", ants[3].X, ants[3].Z, want, want)
	}
}

func TestCustomRegionAndCarrier(t *testing.T) {
	sys, err := New(Config{
		PlaneDistanceM: 3,
		RegionMin:      Point{X: 0, Z: 0},
		RegionMax:      Point{X: 2, Z: 1.5},
		CandidateCount: 2,
		CarrierHz:      915e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.sys.Config().CandidateCount; got != 2 {
		t.Fatalf("CandidateCount = %d, want the configured 2", got)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{X: 0, Z: 0}).Dist(Point{X: 3, Z: 4}); d != 5 {
		t.Fatalf("dist = %v", d)
	}
}

func TestPublicTraceEndToEnd(t *testing.T) {
	samples, wr, sc := simSamples(t, 77, "play")
	sys, err := New(Config{PlaneDistanceM: sc.Plane.Y})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) < 20 {
		t.Fatalf("trajectory too short: %d", len(res.Trajectory))
	}
	if res.Chosen < 0 || res.Chosen >= len(res.Traces) {
		t.Fatalf("chosen index %d out of %d traces", res.Chosen, len(res.Traces))
	}
	if res.Epochs != 1 {
		t.Fatalf("a continuous word traced in %d epochs, want 1", res.Epochs)
	}
	// The chosen trace must be the one in Trajectory.
	chosen := res.Traces[res.Chosen]
	if len(chosen.Points) != len(res.Trajectory) {
		t.Fatal("chosen trace mismatch")
	}
	// Shape sanity: after removing the initial offset, the end point of
	// the reconstruction should sit near the true end, relative to start.
	trueStart := wr.Truth.Start()
	trueEnd := wr.Truth.End()
	recStart := res.Trajectory[0]
	recEnd := res.Trajectory[len(res.Trajectory)-1]
	wantDX := trueEnd.X - trueStart.X
	gotDX := recEnd.X - recStart.X
	if math.Abs(gotDX-wantDX) > 0.15 {
		t.Fatalf("reconstructed word advance = %v, want ≈%v", gotDX, wantDX)
	}
	// Votes accompany every point.
	if len(chosen.Votes) != len(chosen.Points) {
		t.Fatal("votes not aligned with points")
	}
}

func TestPublicLocalize(t *testing.T) {
	samples, _, sc := simSamples(t, 78, "on")
	sys, err := New(Config{PlaneDistanceM: sc.Plane.Y})
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state sample.
	cands, err := sys.Localize(samples[len(samples)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Trace(nil); err == nil {
		t.Fatal("empty samples should error")
	}
	if _, err := sys.Trace([]Sample{{Time: 0, Phases: map[int]float64{}}}); err == nil {
		t.Fatal("unusable samples should error")
	}
}

func TestSampleTimesPreserved(t *testing.T) {
	samples, _, sc := simSamples(t, 79, "go")
	sys, err := New(Config{PlaneDistanceM: sc.Plane.Y})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration = -1
	for _, p := range res.Trajectory {
		if p.Time <= prev {
			t.Fatal("trajectory times not strictly increasing")
		}
		prev = p.Time
	}
}

// traceManyCase is three tags writing at once, as TraceMany takes them,
// and each tag's result from Trace on a one-worker System.
type traceManyCase struct {
	streams map[string][]Sample
	want    map[string]*Result
}

var traceManyCaseOnce = sync.OnceValues(func() (*traceManyCase, error) {
	sc, err := sim.New(sim.Config{Seed: 21})
	if err != nil {
		return nil, err
	}
	run, err := sc.RunWords([]string{"hi", "go", "on"},
		[]geom.Vec2{{X: 0.4, Z: 1.3}, {X: 1.6, Z: 0.7}, {X: 1.0, Z: 1.6}})
	if err != nil {
		return nil, err
	}
	seq, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		return nil, err
	}
	c := &traceManyCase{streams: map[string][]Sample{}, want: map[string]*Result{}}
	for i, tag := range run.Tags {
		key := tag.EPC.String()
		c.streams[key] = publicSamples(run.SamplesRF[i])
		if c.want[key], err = seq.Trace(c.streams[key]); err != nil {
			return nil, fmt.Errorf("tag %s: %w", key, err)
		}
	}
	return c, nil
})

// traceManyFixture returns the shared three-tag case, built once.
func traceManyFixture(t *testing.T) *traceManyCase {
	t.Helper()
	c, err := traceManyCaseOnce()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireTraceMany traces streams through sys.TraceMany and requires, per
// tag, exactly the result in want. It reports with t.Error, so callers
// may run it on several goroutines at once.
func requireTraceMany(t *testing.T, sys *System, streams map[string][]Sample, want map[string]*Result) {
	t.Helper()
	many, err := sys.TraceMany(streams)
	if err != nil {
		t.Error(err)
		return
	}
	if len(many) != len(streams) {
		t.Errorf("traced %d tags, want %d", len(many), len(streams))
	}
	for key, got := range many {
		if !reflect.DeepEqual(got, want[key]) {
			t.Errorf("tag %s: TraceMany differs from Trace", key)
		}
	}
}

func newShardedSystem(t *testing.T, shards int) *System {
	t.Helper()
	sys, err := New(Config{PlaneDistanceM: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestTraceManyMatchesTrace checks the concurrent multi-tag path returns,
// per tag, exactly what the synchronous path returns, at one worker and
// at four, more workers than the 3 tags.
func TestTraceManyMatchesTrace(t *testing.T) {
	c := traceManyFixture(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			requireTraceMany(t, newShardedSystem(t, shards), c.streams, c.want)
		})
	}
}

// TestTraceManyDeterministicAcrossShardCounts checks the worker count
// changes no result where workers share the tags unevenly (2 workers) or
// take one each (3): with TestTraceManyMatchesTrace, every count from 1
// to 4 returns Trace's results.
func TestTraceManyDeterministicAcrossShardCounts(t *testing.T) {
	c := traceManyFixture(t)
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			requireTraceMany(t, newShardedSystem(t, shards), c.streams, c.want)
		})
	}
}

// TestTraceManyMoreShardsThanTags checks nothing wedges or is lost when
// most workers have no tag: 16 workers over 2 tags.
func TestTraceManyMoreShardsThanTags(t *testing.T) {
	c := traceManyFixture(t)
	streams := map[string][]Sample{}
	for _, key := range slices.Sorted(maps.Keys(c.streams))[:2] {
		streams[key] = c.streams[key]
		if n := len(c.want[key].Trajectory); n < 5 {
			t.Fatalf("tag %s: Trace gave only %d points", key, n)
		}
	}
	requireTraceMany(t, newShardedSystem(t, 16), streams, c.want)
}

// TestTraceManyConcurrentCallers runs TraceMany from four goroutines on
// one System whose 2 workers each take more than one of the 3 tags (run
// it under -race).
func TestTraceManyConcurrentCallers(t *testing.T) {
	c := traceManyFixture(t)
	sys := newShardedSystem(t, 2)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			requireTraceMany(t, sys, c.streams, c.want)
		}()
	}
	wg.Wait()
}

func TestTraceManyValidation(t *testing.T) {
	sys, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.TraceMany(nil); err == nil {
		t.Fatal("empty stream map should error")
	}
	if _, err := sys.TraceMany(map[string][]Sample{"x": nil}); err == nil {
		t.Fatal("empty per-tag stream should error")
	}
}
