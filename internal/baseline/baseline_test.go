package baseline

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

var plane = geom.Plane{Y: 2}

func testSystem(t testing.TB) (*System, *deploy.Baseline) {
	t.Helper()
	dep, err := deploy.DefaultBaseline()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dep, Config{Plane: plane, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	return s, dep
}

// synthObs generates per-antenna phases for a source, with optional noise.
func synthObs(dep *deploy.Baseline, src geom.Vec3, noise float64, rng *rand.Rand) vote.Observations {
	var obs vote.Observations
	for _, a := range dep.AllAntennas() {
		ph := phys.PathPhase(dep.Carrier, dep.Link, a.Pos.Dist(src))
		if noise > 0 && rng != nil {
			ph += rng.NormFloat64() * noise
		}
		obs.Set(a.ID, phys.Wrap(ph))
	}
	return obs
}

func TestNewValidation(t *testing.T) {
	dep, _ := deploy.DefaultBaseline()
	if _, err := New(nil, Config{Plane: plane, Region: deploy.DefaultRegion()}); err == nil {
		t.Fatal("nil deployment should error")
	}
	if _, err := New(dep, Config{Plane: plane}); err == nil {
		t.Fatal("degenerate region should error")
	}
	s, err := New(dep, Config{Plane: plane, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().ThetaScan <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestLocalizeNearFieldNoiseless(t *testing.T) {
	// The strengthened (ablation) near-field variant is accurate without
	// noise.
	dep, err := deploy.DefaultBaseline()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dep, Config{Plane: plane, Region: deploy.DefaultRegion(), NearField: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, src2 := range []geom.Vec2{{X: 1.3, Z: 1.0}, {X: 1.8, Z: 1.4}, {X: 0.9, Z: 0.8}} {
		obs := synthObs(dep, plane.To3D(src2), 0, nil)
		got, err := s.Localize(obs)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.Dist(src2); d > 0.35 {
			t.Errorf("src %v: estimate %v off by %v m", src2, got, d)
		}
	}
}

func TestLocalizeFarFieldHasSystematicBias(t *testing.T) {
	// The published scheme treats each AoA cone as a planar ray; at 2 m
	// off the wall the approximation costs tens of centimetres even with
	// a perfect channel (part of why the paper's baseline sits at a
	// 40.8 cm LOS median). It must still be a usable, bounded estimate.
	s, dep := testSystem(t)
	near, err := New(dep, Config{Plane: plane, Region: deploy.DefaultRegion(), NearField: true})
	if err != nil {
		t.Fatal(err)
	}
	var farSum, nearSum float64
	srcs := []geom.Vec2{{X: 1.3, Z: 1.0}, {X: 1.8, Z: 1.4}, {X: 0.9, Z: 0.8}}
	for _, src2 := range srcs {
		obs := synthObs(dep, plane.To3D(src2), 0, nil)
		gotF, err := s.Localize(obs)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := near.Localize(obs)
		if err != nil {
			t.Fatal(err)
		}
		dF, dN := gotF.Dist(src2), gotN.Dist(src2)
		if dF > 1.2 {
			t.Errorf("far-field estimate unusable: %v off by %v m", gotF, dF)
		}
		farSum += dF
		nearSum += dN
	}
	if farSum <= nearSum {
		t.Fatalf("far-field total error %v should exceed near-field %v", farSum, nearSum)
	}
}

func TestLocalizeIncompleteArrays(t *testing.T) {
	s, dep := testSystem(t)
	obs := synthObs(dep, plane.To3D(geom.Vec2{X: 1.3, Z: 1.0}), 0, nil)
	obs.Forget(2)
	if _, err := s.Localize(obs); err == nil {
		t.Fatal("missing left-array phase should error")
	}
	obs = synthObs(dep, plane.To3D(geom.Vec2{X: 1.3, Z: 1.0}), 0, nil)
	obs.Forget(7)
	if _, err := s.Localize(obs); err == nil {
		t.Fatal("missing bottom-array phase should error")
	}
}

func TestLocalizeNoisyErrorsAreLarge(t *testing.T) {
	// The headline comparison: with realistic phase noise, the λ/4
	// arrays' wide beams yield decimetre-scale scatter (§8.1 reports a
	// 40.8 cm LOS median for the baseline vs 3.7 cm for RF-IDraw).
	s, dep := testSystem(t)
	rng := rand.New(rand.NewSource(9))
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	var errs []float64
	for i := 0; i < 60; i++ {
		obs := synthObs(dep, plane.To3D(src2), 0.25, rng)
		got, err := s.Localize(obs)
		if err != nil {
			continue
		}
		errs = append(errs, got.Dist(src2))
	}
	if len(errs) < 50 {
		t.Fatalf("too many failures: %d estimates", len(errs))
	}
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	if mean < 0.05 {
		t.Fatalf("mean noisy error = %v m; expected decimetre-scale scatter", mean)
	}
}

func TestTraceSkipsBadSamples(t *testing.T) {
	s, dep := testSystem(t)
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	good := tracing.Sample{T: 0, Phase: synthObs(dep, plane.To3D(src2), 0, nil)}
	bad := tracing.Sample{T: 25 * time.Millisecond, Phase: vote.ObservationsOf(map[int]float64{1: 0.5})}
	good2 := tracing.Sample{T: 50 * time.Millisecond, Phase: synthObs(dep, plane.To3D(src2), 0, nil)}
	tr, err := s.Trace([]tracing.Sample{good, bad, good2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("traced %d points, want 2 (bad sample skipped)", tr.Len())
	}
	if _, err := s.Trace([]tracing.Sample{bad}); err == nil {
		t.Fatal("all-bad samples should error")
	}
	if _, err := s.Trace(nil); err == nil {
		t.Fatal("empty samples should error")
	}
}

func TestTraceErrorsAreIncoherent(t *testing.T) {
	// §8.1: removing the initial offset does NOT help the baseline —
	// its per-sample errors are independent. Verify that initial-offset
	// alignment is no better than mean alignment, unlike RF-IDraw.
	s, dep := testSystem(t)
	rng := rand.New(rand.NewSource(10))
	n := 80
	path := make([]geom.Vec2, n)
	for i := range path {
		th := 2 * math.Pi * float64(i) / float64(n)
		path[i] = geom.Vec2{X: 1.3 + 0.07*math.Cos(th), Z: 1.0 + 0.07*math.Sin(th)}
	}
	samples := make([]tracing.Sample, n)
	for i, p := range path {
		samples[i] = tracing.Sample{
			T:     time.Duration(i) * 25 * time.Millisecond,
			Phase: synthObs(dep, plane.To3D(p), 0.25, rng),
		}
	}
	rec, err := s.Trace(samples)
	if err != nil {
		t.Fatal(err)
	}
	truth := traj.FromPositions(path, 25*time.Millisecond)
	medInit, _ := traj.MedianError(truth, rec, traj.AlignInitial, n)
	medMean, _ := traj.MedianError(truth, rec, traj.AlignMean, n)
	// Mean alignment should be at least as good (the paper grants the
	// baseline this favourable metric).
	if medMean > medInit*1.5 {
		t.Fatalf("mean-aligned error %v should not be much worse than initial-aligned %v", medMean, medInit)
	}
	if medMean < 0.03 {
		t.Fatalf("baseline shape error %v suspiciously small", medMean)
	}
}

func TestCosToSource(t *testing.T) {
	center := geom.Vec3{X: 0, Y: 0, Z: 0}
	axis := geom.Vec3{Z: 1}
	// A source along the axis has cos θ = 1; broadside has 0.
	if got := cosToSource(center, axis, geom.Vec3{Z: 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("axial cos = %v", got)
	}
	if got := cosToSource(center, axis, geom.Vec3{X: 2, Y: 1}); math.Abs(got) > 1e-12 {
		t.Fatalf("broadside cos = %v", got)
	}
	// Degenerate source at the centre returns 0 rather than NaN.
	if got := cosToSource(center, axis, center); got != 0 {
		t.Fatalf("degenerate cos = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	s, _ := testSystem(t)
	if s.Describe() == "" {
		t.Fatal("empty description")
	}
}
