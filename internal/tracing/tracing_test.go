package tracing

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

var plane = geom.Plane{Y: 2}

func testTracer(t testing.TB) (*Tracer, *deploy.RFIDraw) {
	t.Helper()
	d, err := deploy.DefaultRFIDraw()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracer(d.AllPairs(), Config{Plane: plane, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// synthSamples generates observation samples for a source moving along the
// given plane positions, one sample per position, with optional phase noise.
func synthSamples(d *deploy.RFIDraw, positions []geom.Vec2, noise float64, rng *rand.Rand) []Sample {
	dt := 25 * time.Millisecond
	out := make([]Sample, len(positions))
	for i, p2 := range positions {
		src := plane.To3D(p2)
		var obs vote.Observations
		for _, a := range d.Antennas {
			ph := phys.PathPhase(d.Carrier, d.Link, a.Pos.Dist(src))
			if noise > 0 && rng != nil {
				ph += rng.NormFloat64() * noise
			}
			obs.Set(a.ID, phys.Wrap(ph))
		}
		out[i] = Sample{T: time.Duration(i) * dt, Phase: obs}
	}
	return out
}

// circlePath generates a small circular trajectory (centre c, radius r).
func circlePath(c geom.Vec2, r float64, n int) []geom.Vec2 {
	out := make([]geom.Vec2, n)
	for i := range out {
		th := 2 * math.Pi * float64(i) / float64(n)
		out[i] = geom.Vec2{X: c.X + r*math.Cos(th), Z: c.Z + r*math.Sin(th)}
	}
	return out
}

func TestNewTracerValidation(t *testing.T) {
	d, _ := deploy.DefaultRFIDraw()
	if _, err := NewTracer(d.AllPairs()[:2], Config{Plane: plane, Region: deploy.DefaultRegion()}); err == nil {
		t.Fatal("under-constrained pair set should be rejected")
	}
	if _, err := NewTracer(d.AllPairs(), Config{Plane: plane}); err == nil {
		t.Fatal("degenerate region should be rejected")
	}
	tr, err := NewTracer(d.AllPairs(), Config{Plane: plane, Region: deploy.DefaultRegion()})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Config().VicinityRadius <= 0 || tr.Config().MinPairs <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestTraceNoiselessFollowsTruth(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 60)
	samples := synthSamples(d, path, 0, nil)
	res, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectory.Len() != len(path) {
		t.Fatalf("traced %d points, want %d", res.Trajectory.Len(), len(path))
	}
	truth := traj.FromPositions(path, 25*time.Millisecond)
	med, err := traj.MedianError(truth, res.Trajectory, traj.AlignNone, len(path))
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.01 {
		t.Fatalf("noiseless median error = %v m, want < 1 cm", med)
	}
	// Votes stay near zero on the correct lobe set.
	for i, v := range res.Votes {
		if v < -0.05 {
			t.Fatalf("vote %d = %v, want ≈0 for the correct start", i, v)
		}
	}
}

func TestTraceShapeResilienceWrongStart(t *testing.T) {
	// §4 / Fig. 7: starting from a slightly wrong position locks nearby
	// wrong lobes; the absolute position is off but the *shape* is
	// preserved after removing the initial offset.
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 60)
	samples := synthSamples(d, path, 0, nil)
	wrongStart := path[0].Add(geom.Vec2{X: 0.10, Z: 0.07})
	res, err := tr.Trace(wrongStart, samples)
	if err != nil {
		t.Fatal(err)
	}
	truth := traj.FromPositions(path, 25*time.Millisecond)
	// Absolute error is large (wrong lobe)...
	medAbs, _ := traj.MedianError(truth, res.Trajectory, traj.AlignNone, 60)
	// ...but after removing the initial offset the shape is close.
	medShape, _ := traj.MedianError(truth, res.Trajectory, traj.AlignInitial, 60)
	if medShape > 0.04 {
		t.Fatalf("shape error = %v m, want small (shape resilience)", medShape)
	}
	if medShape > medAbs {
		t.Fatalf("shape error %v should be ≤ absolute error %v", medShape, medAbs)
	}
}

func TestTraceVoteDetectsWrongCandidate(t *testing.T) {
	// §5.2/§7.2: a badly wrong initial position yields lobes that stop
	// intersecting as the source moves — its mean vote collapses
	// relative to the correct start.
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	good, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := tr.Trace(path[0].Add(geom.Vec2{X: 0.45, Z: 0.3}), samples)
	if err != nil {
		t.Fatal(err)
	}
	if bad.TotalVote >= good.TotalVote {
		t.Fatalf("wrong start vote %v should be below correct start vote %v",
			bad.TotalVote, good.TotalVote)
	}
}

func TestMultiStreamPicksHighestVote(t *testing.T) {
	// The §5.2 selection step, incrementally: pushing the samples through
	// a multi-hypothesis stream must elect the true start as leader even
	// when a wrong candidate scored better at positioning time.
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	cands := []vote.Candidate{
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3}), Score: -0.001}, // wrong but scored high
		{Pos: path[0], Score: -0.002},
	}
	ms, err := tr.NewMultiStream(cands, samples[0], MultiConfig{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		ms.Push(s)
	}
	all, kept, idx, err := ms.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || len(kept) != 2 {
		t.Fatalf("results = %d, candidates = %d", len(all), len(kept))
	}
	if idx != 1 {
		t.Fatalf("chose candidate %d, want 1 (the true start)", idx)
	}
	if all[idx].Trajectory.Start().Dist(path[0]) > 0.05 {
		t.Fatalf("best start = %v", all[idx].Trajectory.Start())
	}
	if _, err := tr.NewMultiStream(nil, samples[0], MultiConfig{}); err == nil {
		t.Fatal("no candidates should error")
	}
}

func TestTraceLobeOverridesShiftTrajectory(t *testing.T) {
	// Forcing adjacent wrong lobes (Fig. 7a) translates the trace while
	// keeping its shape.
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 50)
	samples := synthSamples(d, path, 0, nil)
	base, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := tr.Trace(path[0], samples, LobeOverride{PairIndex: 6, DeltaK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shifted.LockedLobes[6] != base.LockedLobes[6]+1 {
		t.Fatalf("override not applied: %d vs %d", shifted.LockedLobes[6], base.LockedLobes[6])
	}
	// The shifted trace ends up displaced...
	if base.Trajectory.End().Dist(shifted.Trajectory.End()) < 0.01 {
		t.Fatal("override should displace the trajectory")
	}
	// ...but its shape still matches the truth after offset removal.
	truth := traj.FromPositions(path, 25*time.Millisecond)
	medShape, _ := traj.MedianError(truth, shifted.Trajectory, traj.AlignInitial, 50)
	if medShape > 0.05 {
		t.Fatalf("override shape error = %v", medShape)
	}
	if _, err := tr.Trace(path[0], samples, LobeOverride{PairIndex: 99}); err == nil {
		t.Fatal("out-of-range override should error")
	}
}

func TestTraceHandlesReplyLoss(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 60)
	samples := synthSamples(d, path, 0, nil)
	rng := rand.New(rand.NewSource(5))
	// Drop 20% of individual antenna phases.
	for i := range samples {
		for id := range samples[i].Phase.All() {
			if rng.Float64() < 0.2 {
				samples[i].Phase.Forget(id)
			}
		}
	}
	res, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	truth := traj.FromPositions(path, 25*time.Millisecond)
	med, _ := traj.MedianError(truth, res.Trajectory, traj.AlignInitial, 60)
	if med > 0.03 {
		t.Fatalf("median error with 20%% loss = %v m", med)
	}
}

func TestTraceErrors(t *testing.T) {
	tr, d := testTracer(t)
	if _, err := tr.Trace(geom.Vec2{X: 1, Z: 1}, nil); err == nil {
		t.Fatal("no samples should error")
	}
	// A first sample with almost all phases missing cannot lock pairs.
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.05, 5)
	samples := synthSamples(d, path, 0, nil)
	samples[0].Phase = vote.ObservationsOf(map[int]float64{1: 0.1})
	if _, err := tr.Trace(path[0], samples); err == nil {
		t.Fatal("unobservable start should error")
	}
}

func TestTraceNoisyStillAccurate(t *testing.T) {
	tr, d := testTracer(t)
	rng := rand.New(rand.NewSource(17))
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 80)
	samples := synthSamples(d, path, 0.1, rng)
	res, err := tr.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	truth := traj.FromPositions(path, 25*time.Millisecond)
	med, _ := traj.MedianError(truth, res.Trajectory, traj.AlignInitial, 80)
	// §3.3: wide pairs are robust to phase noise — π/10 rad noise should
	// still give centimetre-level shape accuracy.
	if med > 0.03 {
		t.Fatalf("noisy median error = %v m", med)
	}
}

// TestStepHierarchicalMatchesDense compares the two vicinity strategies
// sample by sample on a noiseless path: the hierarchical coarse-to-fine
// search must land within a couple of millimetres of the dense scan while
// spending at least 5× fewer vote evaluations.
func TestStepHierarchicalMatchesDense(t *testing.T) {
	d, err := deploy.DefaultRFIDraw()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mode vote.SearchMode) *Tracer {
		tr, err := NewTracer(d.AllPairs(), Config{
			Plane: plane, Region: deploy.DefaultRegion(),
			Search: vote.SearchConfig{Mode: mode},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	dense := mk(vote.SearchDense)
	hier := mk(vote.SearchHierarchical)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 60)
	samples := synthSamples(d, path, 0, nil)
	dres, err := dense.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := hier.Trace(path[0], samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Votes) != len(hres.Votes) {
		t.Fatalf("traced %d vs %d samples", len(dres.Votes), len(hres.Votes))
	}
	for i := range dres.Trajectory.Points {
		dp, hp := dres.Trajectory.Points[i].Pos, hres.Trajectory.Points[i].Pos
		if dist := dp.Dist(hp); dist > 0.005 {
			t.Fatalf("sample %d: dense %v vs hierarchical %v (off %v)", i, dp, hp, dist)
		}
	}
	if dres.SearchEvals <= 0 || hres.SearchEvals <= 0 {
		t.Fatalf("eval counters not populated: dense %d, hier %d", dres.SearchEvals, hres.SearchEvals)
	}
	if hres.SearchEvals*5 > dres.SearchEvals {
		t.Fatalf("hierarchical spent %d evals vs dense %d — below the 5x target", hres.SearchEvals, dres.SearchEvals)
	}
}

// TestStreamSharedScratchIsInert checks a scratch shared across streams
// (as the engine shares one per shard) never changes any stream's output.
func TestStreamSharedScratchIsInert(t *testing.T) {
	tr, d := testTracer(t)
	pathA := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.07, 40)
	pathB := circlePath(geom.Vec2{X: 0.8, Z: 1.3}, 0.05, 40)
	samplesA := synthSamples(d, pathA, 0, nil)
	samplesB := synthSamples(d, pathB, 0, nil)

	run := func(sc *vote.Scratch, start geom.Vec2, samples []Sample, interleave func(int)) []traj.Point {
		s, err := newStream(tr, sc, start, samples[0])
		if err != nil {
			t.Fatal(err)
		}
		var pts []traj.Point
		for i, smp := range samples {
			if interleave != nil {
				interleave(i)
			}
			if st, ok := s.Push(smp); ok {
				pts = append(pts, st.Point)
			}
		}
		if s.SearchEvals() <= 0 {
			t.Fatal("stream eval counter not populated")
		}
		return pts
	}
	wantA := run(nil, pathA[0], samplesA, nil)

	// Replay stream A while stream B interleaves pushes through the same
	// scratch — exactly what two tags on one shard do.
	shared := vote.NewScratch()
	sb, err := newStream(tr, shared, pathB[0], samplesB[0])
	if err != nil {
		t.Fatal(err)
	}
	gotA := run(shared, pathA[0], samplesA, func(i int) { sb.Push(samplesB[i]) })
	if len(gotA) != len(wantA) {
		t.Fatalf("shared-scratch stream traced %d points, want %d", len(gotA), len(wantA))
	}
	for i := range gotA {
		if gotA[i] != wantA[i] {
			t.Fatalf("point %d: shared-scratch %v != private %v", i, gotA[i], wantA[i])
		}
	}
}

// lockedTrack is the track and lobe locks a step property starts from: a
// noiseless sample of a source at truth, every pair locked to the lobe
// seen from lockAt (the truth itself for a correct hypothesis).
func lockedTrack(tr *Tracer, d *deploy.RFIDraw, truth, lockAt geom.Vec2) ([]pairTrack, []int) {
	obs := make([]pairObs, len(tr.pairs))
	tr.observe(&synthSamples(d, []geom.Vec2{truth}, 0, nil)[0].Phase, obs)
	track := make([]pairTrack, len(tr.pairs))
	lobes := make([]int, len(tr.pairs))
	fresh, _ := update(track, obs, nil)
	tr.lockFresh(lobes, fresh, track, lockAt)
	return track, lobes
}

// quickPos maps a quick-check pair (ux, uz) to a point of the rectangle
// from lo to hi.
func quickPos(ux, uz uint32, lo, hi geom.Vec2) geom.Vec2 {
	return geom.Vec2{
		X: lo.X + (hi.X-lo.X)*float64(ux)/math.MaxUint32,
		Z: lo.Z + (hi.Z-lo.Z)*float64(uz)/math.MaxUint32,
	}
}

// stepCheck runs one step from seed, as a hypothesis does: dist holds
// the seed's antenna distances on entry. It returns the step's answer,
// its vote and the seed's, and reports whether the vote is exactly the
// one a fresh vote at the answer gives (Push records it as the sample's)
// and dist was left holding the answer's distances (the next sample's
// first vote reads them).
func stepCheck(tr *Tracer, track []pairTrack, lobes []int, seed geom.Vec2) (pos geom.Vec2, v, seedV float64, exact bool) {
	n := tr.kernel.Antennas()
	b := &stepBufs{trial: make([]float64, n), turns: make([]float64, len(tr.pairs)), dir: make([]float64, 2*n)}
	dist, at := make([]float64, n), make([]float64, n)
	seedV = tr.voteAt(track, lobes, seed, dist, b.turns)
	pos, v, _ = tr.step(track, lobes, seed, dist, b)
	exact = v == tr.voteAt(track, lobes, pos, at, b.turns) && slices.Equal(dist, at)
	return pos, v, seedV, exact
}

// TestQuickStepConvergesToTruth is the default step's convergence
// property on noiseless samples: with every pair locked to the lobe the
// source sits on, a step seeded anywhere in the vicinity window around
// the truth returns within 1 mm of it, never returns a lower vote than
// the seed's, and returns exactly the vote at the position it returns,
// leaving that position's distances in the hypothesis's buffer.
func TestQuickStepConvergesToTruth(t *testing.T) {
	tr, d := testTracer(t)
	region := tr.cfg.Region
	r := geom.Vec2{X: tr.cfg.VicinityRadius, Z: tr.cfg.VicinityRadius}
	f := func(ux, uz, ox, oz uint32) bool {
		truth := quickPos(ux, uz, region.Min, region.Max)
		seed := region.Clip(truth.Add(quickPos(ox, oz, r.Scale(-1), r)))
		track, lobes := lockedTrack(tr, d, truth, truth)
		pos, v, seedV, exact := stepCheck(tr, track, lobes, seed)
		if off := pos.Dist(truth); off > 0.001 || v < seedV || !exact {
			t.Logf("truth %v seed %v: step returned %v (off %v) vote %v, seed vote %v, exact %v",
				truth, seed, pos, off, v, seedV, exact)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStepNeverLowersVote is the step's acceptance rule as a
// property: with the pairs locked to the lobes of a wrong position up
// to 0.6 m away (a wrong hypothesis, whose residuals no position
// zeroes), the step still never answers with a lower vote than its
// seed's, and answers with the vote at its position, whose distances it
// leaves in the hypothesis's buffer. An undamped step that took every
// move would break the first claim in about 1 case in 500.
func TestQuickStepNeverLowersVote(t *testing.T) {
	tr, d := testTracer(t)
	region := tr.cfg.Region
	r := geom.Vec2{X: tr.cfg.VicinityRadius, Z: tr.cfg.VicinityRadius}
	wrong := geom.Vec2{X: 0.6, Z: 0.6}
	f := func(ux, uz, ox, oz, wx, wz uint32) bool {
		truth := quickPos(ux, uz, region.Min, region.Max)
		seed := region.Clip(truth.Add(quickPos(ox, oz, r.Scale(-1), r)))
		track, lobes := lockedTrack(tr, d, truth, truth.Add(quickPos(wx, wz, wrong.Scale(-1), wrong)))
		pos, v, seedV, exact := stepCheck(tr, track, lobes, seed)
		if v < seedV || !exact {
			t.Logf("truth %v seed %v: step returned %v vote %v, seed vote %v, exact %v",
				truth, seed, pos, v, seedV, exact)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestObserveMatchesPairTurns: reading each pair's two antenna slots
// gives every pair exactly vote.PairTurns' observable, for samples with
// random antennas unheard.
func TestObserveMatchesPairTurns(t *testing.T) {
	tr, d := testTracer(t)
	rng := rand.New(rand.NewSource(11))
	samples := synthSamples(d, circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 40), 0.05, rng)
	out := make([]pairObs, len(tr.pairs))
	for si, s := range samples {
		for id := range s.Phase.All() {
			if rng.Intn(4) == 0 {
				s.Phase.Forget(id)
			}
		}
		tr.observe(&s.Phase, out)
		for i, p := range tr.pairs {
			turns, ok := vote.PairTurns(p, &s.Phase)
			if out[i] != (pairObs{turns: turns, ok: ok}) {
				t.Fatalf("sample %d pair %d: observe %+v, PairTurns (%v, %v)", si, i, out[i], turns, ok)
			}
		}
	}
}
