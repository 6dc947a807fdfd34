package core

import (
	"math/rand"
	"testing"
	"time"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/phys"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// Failure-injection tests: the system must degrade cleanly, not panic or
// produce garbage silently, under realistic fault modes.

func runWord(t *testing.T, seed int64) (*sim.Scenario, *sim.WordRun, *System) {
	t.Helper()
	sc, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("on", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sc.RFIDraw, Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		t.Fatal(err)
	}
	return sc, wr, sys
}

func TestTraceSurvivesSingleDeadAntenna(t *testing.T) {
	// One dead port: 5 wide pairs (of 6) and most coarse pairs survive,
	// so tracing must still work, just with fewer votes.
	_, wr, sys := runWord(t, 201)
	for i := range wr.SamplesRF {
		wr.SamplesRF[i].Phase.Forget(3)
	}
	res, err := sys.Trace(wr.SamplesRF)
	if err != nil {
		t.Fatal(err)
	}
	med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.08 {
		t.Fatalf("shape error with dead antenna = %v m", med)
	}
}

func TestTraceFailsCleanlyWithDeadReader(t *testing.T) {
	// Losing the whole coarse reader removes every stage-1 pair: the
	// positioner must refuse rather than hallucinate a position.
	_, wr, sys := runWord(t, 202)
	for i := range wr.SamplesRF {
		for id := 5; id <= 8; id++ {
			wr.SamplesRF[i].Phase.Forget(id)
		}
	}
	if _, err := sys.Trace(wr.SamplesRF); err == nil {
		t.Fatal("dead coarse reader should be an error, not a guess")
	}
}

func TestTraceSurvivesBurstLoss(t *testing.T) {
	// A 10-sweep total blackout mid-word: the tracker holds position and
	// re-continues when phases return.
	_, wr, sys := runWord(t, 203)
	mid := len(wr.SamplesRF) / 2
	for i := mid; i < mid+10 && i < len(wr.SamplesRF); i++ {
		wr.SamplesRF[i].Phase = vote.Observations{}
	}
	res, err := sys.Trace(wr.SamplesRF)
	if err != nil {
		t.Fatal(err)
	}
	med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.10 {
		t.Fatalf("shape error after blackout = %v m", med)
	}
}

func TestTraceSurvivesCorruptPhases(t *testing.T) {
	// Occasional wildly wrong phases (interference bursts) must not
	// derail the over-constrained vote.
	_, wr, sys := runWord(t, 204)
	rng := rand.New(rand.NewSource(1))
	for i := range wr.SamplesRF {
		if rng.Float64() < 0.05 {
			id := 1 + rng.Intn(8)
			if _, ok := wr.SamplesRF[i].Phase.Phase(id); ok {
				wr.SamplesRF[i].Phase.Set(id, rng.Float64()*phys.TwoPi)
			}
		}
	}
	res, err := sys.Trace(wr.SamplesRF)
	if err != nil {
		t.Fatal(err)
	}
	med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.10 {
		t.Fatalf("shape error with corrupt phases = %v m", med)
	}
}

func TestTraceRejectsOutOfRegionStart(t *testing.T) {
	// Observations consistent with a source far outside the region: the
	// candidates clip into the region; tracing must not explode.
	sc, err := sim.New(sim.Config{Seed: 205})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(sc.RFIDraw, Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		t.Fatal(err)
	}
	src := sc.Plane.To3D(geom.Vec2{X: 8, Z: 5}) // far outside
	var obs vote.Observations
	for _, a := range sc.RFIDraw.Antennas {
		obs.Set(a.ID, phys.PathPhase(sc.RFIDraw.Carrier, sc.RFIDraw.Link, a.Pos.Dist(src)))
	}
	samples := []tracing.Sample{{T: 0, Phase: obs}, {T: 25 * time.Millisecond, Phase: obs}}
	res, err := sys.Trace(samples)
	if err != nil {
		// Acceptable: the system may fail cleanly.
		return
	}
	// If it returns, the positions must be inside the region.
	for _, p := range res.Best.Trajectory.Points {
		if !sc.Region.Expand(0.01).Contains(p.Pos) {
			t.Fatalf("out-of-region estimate %v", p.Pos)
		}
	}
}

func TestTraceWithDuplicateTimestamps(t *testing.T) {
	// Duplicated sweeps (e.g. a retransmitting bridge) must not break
	// monotonic unwrapping.
	_, wr, sys := runWord(t, 206)
	dup := make([]tracing.Sample, 0, 2*len(wr.SamplesRF))
	for _, s := range wr.SamplesRF {
		dup = append(dup, s, s)
	}
	res, err := sys.Trace(dup)
	if err != nil {
		t.Fatal(err)
	}
	med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.08 {
		t.Fatalf("shape error with duplicated samples = %v m", med)
	}
}

func TestAveragePhasesProperties(t *testing.T) {
	// Averaging a constant phase returns it; averaging opposite phasors
	// drops the antenna.
	s1 := tracing.Sample{Phase: vote.ObservationsOf(map[int]float64{1: 1.0, 2: 0.5})}
	s2 := tracing.Sample{Phase: vote.ObservationsOf(map[int]float64{1: 1.0, 2: 0.5 + 3.14159265})}
	obs := averagePhases([]tracing.Sample{s1, s2}, 2)
	if v, ok := obs.Phase(1); !ok || v < 0.99 || v > 1.01 {
		t.Fatalf("constant phase average = %v", v)
	}
	if _, ok := obs.Phase(2); ok {
		t.Fatal("cancelled phasor should be dropped")
	}
	// k larger than available samples is clamped.
	obs = averagePhases([]tracing.Sample{s1}, 10)
	if _, ok := obs.Phase(1); !ok {
		t.Fatal("clamped averaging lost data")
	}
	if got := averagePhases(nil, 3); got.Len() != 0 {
		t.Fatal("empty input should average to empty")
	}
}

func TestSystemAcrossDistances(t *testing.T) {
	// The same configuration must work across the paper's 2–5 m span.
	for _, d := range []float64{2, 3, 4, 5} {
		sc, err := sim.New(sim.Config{Seed: 300 + int64(d*10), Distance: d})
		if err != nil {
			t.Fatal(err)
		}
		wr, err := sc.RunWord("go", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(sc.RFIDraw, Config{Plane: sc.Plane, Region: sc.Region})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Trace(wr.SamplesRF)
		if err != nil {
			t.Fatalf("distance %v: %v", d, err)
		}
		med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
		if err != nil {
			t.Fatal(err)
		}
		if med > 0.12 {
			t.Fatalf("distance %v: shape error %v m", d, med)
		}
	}
}

func TestNilDeploymentUsesDefault(t *testing.T) {
	sys, err := NewSystem(nil, Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Deployment().Antennas) != 8 {
		t.Fatal("default deployment expected")
	}
}
