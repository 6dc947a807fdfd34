package core

import (
	"testing"
	"time"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
)

func newSystem(t testing.TB, dist float64) *System {
	t.Helper()
	s, err := NewSystem(nil, Config{
		Plane:  geom.Plane{Y: dist},
		Region: deploy.DefaultRegion(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, Config{Plane: geom.Plane{Y: 2}}); err == nil {
		t.Fatal("degenerate region should error")
	}
	if _, err := NewSystem(nil, Config{Plane: geom.Plane{}, Region: deploy.DefaultRegion()}); err == nil {
		t.Fatal("zero plane distance should error")
	}
	s := newSystem(t, 2)
	if s.Deployment() == nil || s.Positioner() == nil || s.Tracer() == nil {
		t.Fatal("accessors should be populated")
	}
	if s.Config().CandidateCount != 5 {
		t.Fatalf("default candidate count = %d", s.Config().CandidateCount)
	}
}

func TestEndToEndTraceAccuracy(t *testing.T) {
	// Full pipeline: simulated readers → merged samples → candidates →
	// traced trajectory. Shape error must be centimetre-level in LOS.
	sc, err := sim.New(sim.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("clear", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, sc.Plane.Y)
	res, err := sys.Trace(wr.SamplesRF)
	if err != nil {
		t.Fatal(err)
	}
	med, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 128)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.08 {
		t.Fatalf("end-to-end LOS shape error = %v m", med)
	}
	// The chosen initial position should be decently close (§8.2 reports
	// a 19 cm median in LOS).
	if d := res.InitialPosition().Dist(wr.Truth.Start()); d > 0.6 {
		t.Fatalf("initial position error = %v m", d)
	}
	if len(res.All) != len(res.Candidates) {
		t.Fatal("trace/candidate alignment broken")
	}
	if res.BestIndex < 0 || res.BestIndex >= len(res.All) {
		t.Fatalf("best index = %d", res.BestIndex)
	}
}

func TestTraceEmptySamples(t *testing.T) {
	sys := newSystem(t, 2)
	if _, err := sys.Trace(nil); err == nil {
		t.Fatal("no samples should error")
	}
	// Unusable samples (all phases missing) should fail cleanly.
	bad := make([]tracing.Sample, 12)
	for i := range bad {
		bad[i] = tracing.Sample{T: time.Duration(i) * time.Millisecond}
	}
	if _, err := sys.Trace(bad); err == nil {
		t.Fatal("unusable samples should error")
	}
}

func TestLocalizeMatchesPositioner(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	rf, _, err := sc.StaticRun(geom.Vec2{X: 1.3, Z: 1.0}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, sc.Plane.Y)
	// Use a steady-state sample (all antennas heard).
	sample := rf[len(rf)-1]
	cands, err := sys.Localize(sample.Phase)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if d := cands[0].Pos.Dist(geom.Vec2{X: 1.3, Z: 1.0}); d > 0.5 {
		t.Fatalf("localization error = %v m", d)
	}
}
