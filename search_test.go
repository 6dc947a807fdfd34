package rfidraw

import (
	"fmt"
	"maps"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
)

// equivEpsilon returns the dense-vs-hierarchical equivalence tolerance in
// metres: 0.02 (half the paper's median-accuracy envelope of a few cm) by
// default, overridable with RFIDRAW_EQUIV_EPSILON_M for stricter or
// machine-specific gates.
func equivEpsilon(t *testing.T) float64 {
	t.Helper()
	if s := os.Getenv("RFIDRAW_EQUIV_EPSILON_M"); s != "" {
		eps, err := strconv.ParseFloat(s, 64)
		if err != nil || eps <= 0 {
			t.Fatalf("bad RFIDRAW_EQUIV_EPSILON_M=%q: %v", s, err)
		}
		return eps
	}
	return 0.02
}

func toPublicSamples(t *testing.T, run *sim.WordRun) []Sample {
	t.Helper()
	out := make([]Sample, len(run.SamplesRF))
	for i, s := range run.SamplesRF {
		out[i] = Sample{Time: s.T, Phases: maps.Collect(s.Phase.All())}
	}
	return out
}

// TestHierarchicalMatchesDenseOnCorpus is the tentpole's equivalence gate:
// over a sim-corpus workload, the default hierarchical search must
// reproduce the dense reference trajectories within epsilon, while
// spending at least 5× fewer steady-state grid evaluations per sample.
func TestHierarchicalMatchesDenseOnCorpus(t *testing.T) {
	eps := equivEpsilon(t)
	dense, err := New(Config{PlaneDistanceM: 2, Search: SearchConfig{Mode: SearchDense}})
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	hier, err := New(Config{PlaneDistanceM: 2}) // zero value: hierarchical
	if err != nil {
		t.Fatal(err)
	}
	defer hier.Close()

	words := []struct {
		word  string
		start geom.Vec2
		seed  int64
	}{
		{"on", geom.Vec2{X: 0.9, Z: 1.0}, 21},
		{"hi", geom.Vec2{X: 1.3, Z: 0.8}, 22},
		{"go", geom.Vec2{X: 0.6, Z: 1.3}, 23},
		{"up", geom.Vec2{X: 1.6, Z: 1.1}, 24},
	}
	var denseEvals, hierEvals, denseSteps, hierSteps int
	var medians []float64
	for _, w := range words {
		sc, err := sim.New(sim.Config{Seed: w.seed})
		if err != nil {
			t.Fatal(err)
		}
		run, err := sc.RunWord(w.word, w.start, handwriting.DefaultStyle())
		if err != nil {
			t.Fatal(err)
		}
		samples := toPublicSamples(t, run)
		dres, err := dense.Trace(samples)
		if err != nil {
			t.Fatalf("%s: dense trace: %v", w.word, err)
		}
		hres, err := hier.Trace(samples)
		if err != nil {
			t.Fatalf("%s: hierarchical trace: %v", w.word, err)
		}
		if d := dres.InitialPosition.Dist(hres.InitialPosition); d > eps {
			t.Errorf("%s: initial positions differ by %.4f m (dense %+v vs hierarchical %+v, eps %.3f)",
				w.word, d, dres.InitialPosition, hres.InitialPosition, eps)
		}
		n := len(dres.Trajectory)
		if len(hres.Trajectory) < n {
			n = len(hres.Trajectory)
		}
		if n == 0 {
			t.Fatalf("%s: empty trajectory", w.word)
		}
		dists := make([]float64, n)
		for i := 0; i < n; i++ {
			dp, hp := dres.Trajectory[i], hres.Trajectory[i]
			dists[i] = math.Hypot(dp.X-hp.X, dp.Z-hp.Z)
		}
		sort.Float64s(dists)
		med := dists[n/2]
		medians = append(medians, med)
		if med > eps {
			t.Errorf("%s: median pointwise distance %.4f m exceeds epsilon %.3f", w.word, med, eps)
		}
		dt, ht := dres.Traces[dres.Chosen], hres.Traces[hres.Chosen]
		denseEvals += dt.SearchEvals
		denseSteps += len(dt.Points)
		hierEvals += ht.SearchEvals
		hierSteps += len(ht.Points)
	}

	dPer := float64(denseEvals) / float64(denseSteps)
	hPer := float64(hierEvals) / float64(hierSteps)
	t.Logf("steady-state grid evals/sample: dense %.1f, hierarchical %.1f (%.1fx reduction); per-word medians %v",
		dPer, hPer, dPer/hPer, fmtMedians(medians))
	if dPer < 5*hPer {
		t.Errorf("hierarchical search spent %.1f evals/sample vs dense %.1f — reduction %.2fx is below the 5x target",
			hPer, dPer, dPer/hPer)
	}
}

func fmtMedians(m []float64) string {
	out := ""
	for i, v := range m {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4f", v)
	}
	return out
}
