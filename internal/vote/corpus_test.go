package vote_test

import (
	"maps"
	"math"
	"math/cmplx"
	"testing"

	"rfidraw/internal/antenna"
	"rfidraw/internal/core"
	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// TestCandidatesMatchReferenceOnCorpus holds the acquisition kernel to the
// reference descent on acquisition windows of every corpus profile (its
// geometry, propagation and seed). Each tag's windows are the coherent
// phase averages acquisition votes on: every start core.System.Acquire
// tries (0 to 8) and every 8th start after, where a reacquisition may
// begin. Each window is also voted with reader 1's antennas missing, as
// in the reader-loss profile's outage. CandidatesWith on one reused
// scratch must return the reference's candidates and SearchStats bit for
// bit.
func TestCandidatesMatchReferenceOnCorpus(t *testing.T) {
	const average = 3 // core.Config's default InitialAverage
	windows := 0
	for _, prof := range corpus.Profiles() {
		spec, err := deploy.GeometryByName(prof.Geometry)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := spec.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		prop := sim.LOS
		if prof.NLOS {
			prop = sim.NLOS
		}
		scen, err := sim.New(sim.Config{Prop: prop, Seed: prof.Seed, Deployment: dep, Region: spec.Region()})
		if err != nil {
			t.Fatal(err)
		}
		run, err := scen.RunWords([]string{"hi", "go"}, []geom.Vec2{{X: 0.5, Z: 1.0}, {X: 1.6, Z: 1.4}})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(dep, core.Config{Plane: scen.Plane, Region: spec.Region()})
		if err != nil {
			t.Fatal(err)
		}
		p := sys.Positioner()
		var reader1 []int
		for _, pr := range dep.AllPairs() {
			for _, a := range []antenna.Antenna{pr.I, pr.J} {
				if a.ReaderID == 1 {
					reader1 = append(reader1, a.ID)
				}
			}
		}
		sc := vote.NewScratch()
		for tag, samples := range run.SamplesRF {
			for start := 0; start+average <= len(samples); start++ {
				if start > 8 && start%8 != 0 {
					continue
				}
				full := averageWindow(samples[start : start+average])
				lost := maps.Clone(full)
				for _, id := range reader1 {
					delete(lost, id)
				}
				for _, obs := range []vote.Observations{full, lost} {
					got, gotStats, gotErr := p.CandidatesWith(sc, obs)
					want, wantStats, wantErr := vote.ReferenceCandidates(p, obs)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("%s tag %d window %d: error %v, reference error %v", prof.Name, tag, start, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					windows++
					if gotStats != wantStats {
						t.Fatalf("%s tag %d window %d: stats %+v, reference %+v", prof.Name, tag, start, gotStats, wantStats)
					}
					if len(got) != len(want) {
						t.Fatalf("%s tag %d window %d: %d candidates, reference %d", prof.Name, tag, start, len(got), len(want))
					}
					for i := range got {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s tag %d window %d: candidate %d is %+v, reference %+v", prof.Name, tag, start, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	t.Logf("%d windows match the reference", windows)
	if windows < 200 {
		t.Fatalf("only %d windows acquired; the comparison covers too little", windows)
	}
}

func sameBits(a, b vote.Candidate) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Z) == math.Float64bits(b.Pos.Z) &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// averageWindow is the coherent per-antenna phase average acquisition
// votes on (core's averagePhases): the phase of the sum of e^{jφ} over
// the window, dropping an antenna whose phasors cancel.
func averageWindow(samples []tracing.Sample) vote.Observations {
	acc := map[int]complex128{}
	for _, s := range samples {
		for id, ph := range s.Phase {
			acc[id] += cmplx.Rect(1, ph)
		}
	}
	obs := vote.Observations{}
	for id, c := range acc {
		if cmplx.Abs(c) > 1e-6 {
			obs[id] = phys.Wrap(cmplx.Phase(c))
		}
	}
	return obs
}
