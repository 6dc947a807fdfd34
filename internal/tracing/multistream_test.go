package tracing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rfidraw/internal/geom"
	"rfidraw/internal/vote"
)

// TestMultiStreamRetiresCollapsedHypothesis: a badly wrong candidate's
// vote record collapses (Fig. 10f) and the hypothesis is retired — its
// recorded trace truncated, its search work stopped — while the correct
// leader keeps tracing to the end.
func TestMultiStreamRetiresCollapsedHypothesis(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	cands := []vote.Candidate{
		{Pos: path[0]},
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})}, // wildly wrong
	}
	ms, err := tr.NewMultiStream(cands, samples[0], MultiConfig{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		ms.Push(s)
	}
	if ms.Retirements() != 1 {
		t.Fatalf("retirements = %d, want 1", ms.Retirements())
	}
	if ms.Active() != 1 {
		t.Fatalf("active = %d, want 1", ms.Active())
	}
	all, _, best, err := ms.Results()
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 {
		t.Fatalf("leader = %d, want 0 (the true start)", best)
	}
	if !all[1].Retired || all[0].Retired {
		t.Fatalf("retired flags = %v/%v, want false/true", all[0].Retired, all[1].Retired)
	}
	if len(all[1].Votes) >= len(all[0].Votes) {
		t.Fatalf("retired trace has %d votes, leader %d — retirement should truncate",
			len(all[1].Votes), len(all[0].Votes))
	}
	if len(all[1].Votes) < tr.Config().RetireAfter {
		t.Fatalf("retired before RetireAfter=%d samples (at %d)",
			tr.Config().RetireAfter, len(all[1].Votes))
	}
}

// TestMultiStreamPushZeroAllocs gates the live tracing step at zero
// allocations per sweep: a warm MultiStream with Record off pushes
// samples without allocating, so a shard's steady state costs search
// work only. It runs two streams: two hypotheses kept active, and the
// one-candidate stream with default settings that BenchmarkTraceStep
// times.
func TestMultiStreamPushZeroAllocs(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	for _, c := range []struct {
		name  string
		cands []vote.Candidate
		cfg   MultiConfig
	}{
		{"two hypotheses", []vote.Candidate{
			{Pos: path[0]},
			{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})},
		}, MultiConfig{RetireMargin: -1}},
		{"one candidate", []vote.Candidate{{Pos: path[0]}}, MultiConfig{}},
	} {
		ms, err := tr.NewMultiStream(c.cands, samples[0], c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			ms.Push(s)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(samples), func() {
			ms.Push(samples[i%len(samples)])
			i++
		})
		if ms.Active() < len(c.cands) {
			t.Fatalf("%s: active hypotheses = %d, want %d", c.name, ms.Active(), len(c.cands))
		}
		if allocs != 0 {
			t.Fatalf("%s: MultiStream.Push allocates %v allocs/op in steady state, want 0", c.name, allocs)
		}
	}
}

// TestMultiStreamResultsAllocs gates result materialization at a fixed
// cost per epoch: three allocations (the results, the candidates and the
// lobe slab) whatever the hypothesis count.
func TestMultiStreamResultsAllocs(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 40)
	samples := synthSamples(d, path, 0, nil)
	for _, n := range []int{1, 3, 5} {
		cands := make([]vote.Candidate, n)
		for i := range cands {
			cands[i].Pos = path[0].Add(geom.Vec2{X: 0.01 * float64(i)})
		}
		ms, err := tr.NewMultiStream(cands, samples[0], MultiConfig{RetireMargin: -1, MaxHypotheses: -1, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			ms.Push(s)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if all, _, _, err := ms.Results(); err != nil || len(all) != n {
				t.Fatalf("%d hypotheses: %d results, %v", n, len(all), err)
			}
		})
		if allocs != 3 {
			t.Fatalf("%d hypotheses: Results costs %v allocations, want 3", n, allocs)
		}
	}
}

// TestMultiStreamRetirementDisabled: a negative margin keeps every
// hypothesis stepping to the end.
func TestMultiStreamRetirementDisabled(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	cands := []vote.Candidate{
		{Pos: path[0]},
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})},
	}
	ms, err := tr.NewMultiStream(cands, samples[0], MultiConfig{Record: true, RetireMargin: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		ms.Push(s)
	}
	if ms.Retirements() != 0 || ms.Active() != 2 {
		t.Fatalf("retirements = %d, active = %d; want 0, 2", ms.Retirements(), ms.Active())
	}
	all, _, _, err := ms.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(all[0].Votes) != len(all[1].Votes) {
		t.Fatal("disabled retirement should trace both hypotheses fully")
	}
}

// TestMultiStreamElection pins the election mechanics: candidate 0 (the
// positioner's best) sits as provisional leader; a decisively better
// challenger deposes it at the very first sample — before anything has
// been emitted, so no switch is counted — while a near-equivalent
// challenger never clears the hysteresis and the positioner's ranking
// holds. Mid-stream switches on real corpus dynamics are asserted by the
// engine's streaming tests.
func TestMultiStreamElection(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)

	// A wildly wrong provisional leader collapses immediately (mean vote
	// ≈ −1): the first election hands leadership to the true start, and
	// since nothing was emitted yet it is not a switch.
	ms, err := tr.NewMultiStream([]vote.Candidate{
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})},
		{Pos: path[0]},
	}, samples[0], MultiConfig{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if st, ok := ms.Push(s); ok && st.Switched {
			t.Fatalf("pre-emission deposal at t=%v reported as a switch", st.Point.T)
		}
	}
	if ms.Leader() != 1 || ms.Switches() != 0 {
		t.Fatalf("leader=%d switches=%d, want 1 and 0", ms.Leader(), ms.Switches())
	}

	// A nearby candidate (within the vicinity radius) converges onto the
	// same trajectory; its mean stays within the hysteresis margin, so
	// the positioner's ranking is never overturned.
	ms, err = tr.NewMultiStream([]vote.Candidate{
		{Pos: path[0].Add(geom.Vec2{X: 0.04, Z: 0.03})},
		{Pos: path[0]},
	}, samples[0], MultiConfig{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		ms.Push(s)
	}
	if ms.Leader() != 0 || ms.Switches() != 0 {
		t.Fatalf("near-tie leader=%d switches=%d, want 0 and 0 (hysteresis holds)",
			ms.Leader(), ms.Switches())
	}
}

// TestMultiStreamResultsRequireRecord: without recording, Results is an
// error (the live serving path runs unrecorded to bound memory).
func TestMultiStreamResultsRequireRecord(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.05, 10)
	samples := synthSamples(d, path, 0, nil)
	ms, err := tr.NewMultiStream([]vote.Candidate{{Pos: path[0]}}, samples[0], MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		ms.Push(s)
	}
	if _, _, _, err := ms.Results(); err == nil {
		t.Fatal("Results without Record should error")
	}
	if ms.SearchEvals() <= 0 || ms.Active() != 1 {
		t.Fatalf("evals=%d active=%d", ms.SearchEvals(), ms.Active())
	}
}

// TestMultiStreamHypothesesMatchSingleStreams holds the shared per-stream
// track to the per-hypothesis state it replaced: with retirement and the
// hypothesis cap off, each hypothesis of a multi-candidate MultiStream
// must equal a single-candidate stream seeded from the same candidate —
// trajectory, votes, lobe locks and evaluation count, bit for bit. The
// noisy samples leave antennas unheard, so pairs first appear mid-stream
// (each hypothesis locks them against its own position) and some
// samples fall below MinPairs.
func TestMultiStreamHypothesesMatchSingleStreams(t *testing.T) {
	tr, d := testTracer(t)
	rng := rand.New(rand.NewSource(5))
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 120)
	samples := synthSamples(d, path, 0.05, rng)
	for si := range samples {
		for _, a := range d.Antennas {
			// Antenna 8 stays unheard for the first 20 samples; after
			// that any antenna drops out of one sample in six.
			if (si < 20 && a.ID == 8) || rng.Intn(6) == 0 {
				samples[si].Phase.Forget(a.ID)
			}
		}
	}
	cands := []vote.Candidate{
		{Pos: path[0]},
		{Pos: path[0].Add(geom.Vec2{X: 0.05, Z: -0.04})},
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})},
		{Pos: path[0].Add(geom.Vec2{X: -0.3, Z: 0.2})},
	}
	cfg := MultiConfig{RetireMargin: -1, MaxHypotheses: -1, Record: true}
	run := func(cands []vote.Candidate) []Result {
		ms, err := tr.NewMultiStream(cands, samples[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			ms.Push(s)
		}
		all, _, _, err := ms.Results()
		if err != nil {
			t.Fatal(err)
		}
		return all
	}
	multi := run(cands)
	if len(multi) != len(cands) {
		t.Fatalf("%d results for %d candidates", len(multi), len(cands))
	}
	skipped := 0
	for hi, c := range cands {
		got, want := multi[hi], run([]vote.Candidate{c})[0]
		skipped = len(samples) - len(want.Votes)
		if len(got.Votes) != len(want.Votes) || got.SearchEvals != want.SearchEvals ||
			!slices.Equal(got.LockedLobes, want.LockedLobes) ||
			math.Float64bits(got.TotalVote) != math.Float64bits(want.TotalVote) {
			t.Fatalf("hypothesis %d: %d votes, %d evals, lobes %v; single stream %d, %d, %v",
				hi, len(got.Votes), got.SearchEvals, got.LockedLobes, len(want.Votes), want.SearchEvals, want.LockedLobes)
		}
		for i := range got.Votes {
			gp, wp := got.Trajectory.Points[i], want.Trajectory.Points[i]
			if math.Float64bits(got.Votes[i]) != math.Float64bits(want.Votes[i]) || gp.T != wp.T ||
				math.Float64bits(gp.Pos.X) != math.Float64bits(wp.Pos.X) ||
				math.Float64bits(gp.Pos.Z) != math.Float64bits(wp.Pos.Z) {
				t.Fatalf("hypothesis %d sample %d: %v vote %v; single stream %v vote %v", hi, i, gp, got.Votes[i], wp, want.Votes[i])
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no sample fell below MinPairs; the dropouts exercise too little")
	}
}
