package rfidraw

import (
	"maps"
	"math"
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
)

// simSamples converts internal simulator samples to the public type.
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
	out := make([]Sample, len(wr.SamplesRF))
	for i, s := range wr.SamplesRF {
		out[i] = Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
	}
	return out, wr, sc
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
	if got := sys.eng.System().Config().CandidateCount; got != 5 {
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
	if got := sys.eng.System().Config().CandidateCount; got != 2 {
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

// TestTraceManyMatchesTrace checks the concurrent multi-tag path returns,
// per tag, exactly what the synchronous path returns.
func TestTraceManyMatchesTrace(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.RunWords([]string{"hi", "go", "on"},
		[]geom.Vec2{{X: 0.4, Z: 1.3}, {X: 1.6, Z: 0.7}, {X: 1.0, Z: 1.6}})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]Sample{}
	for i, tag := range run.Tags {
		ss := make([]Sample, len(run.SamplesRF[i]))
		for j, s := range run.SamplesRF[i] {
			ss[j] = Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
		}
		streams[tag.EPC.String()] = ss
	}

	par, err := New(Config{PlaneDistanceM: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	many, err := par.TraceMany(streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(streams) {
		t.Fatalf("traced %d tags, want %d", len(many), len(streams))
	}

	seq, err := New(Config{PlaneDistanceM: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	for key, samples := range streams {
		want, err := seq.Trace(samples)
		if err != nil {
			t.Fatalf("tag %s: %v", key, err)
		}
		got := many[key]
		if got == nil {
			t.Fatalf("tag %s missing from TraceMany", key)
		}
		if len(got.Trajectory) != len(want.Trajectory) {
			t.Fatalf("tag %s: %d points vs %d sequential", key, len(got.Trajectory), len(want.Trajectory))
		}
		for i := range got.Trajectory {
			if got.Trajectory[i] != want.Trajectory[i] {
				t.Fatalf("tag %s point %d: %+v != %+v", key, i, got.Trajectory[i], want.Trajectory[i])
			}
		}
		if got.InitialPosition != want.InitialPosition || got.Chosen != want.Chosen {
			t.Fatalf("tag %s: initial/chosen mismatch", key)
		}
	}
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
