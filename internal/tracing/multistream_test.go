package tracing

import (
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
	stats := ms.Stats()
	if len(stats) != 2 || !stats[1].Retired || stats[1].Samples != len(all[1].Votes) {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestMultiStreamPushZeroAllocs gates the live tracing step at zero
// allocations per sweep: a warm MultiStream with two active hypotheses
// and Record off pushes samples without allocating, so a shard's steady
// state costs search work only.
func TestMultiStreamPushZeroAllocs(t *testing.T) {
	tr, d := testTracer(t)
	path := circlePath(geom.Vec2{X: 1.3, Z: 1.0}, 0.12, 80)
	samples := synthSamples(d, path, 0, nil)
	cands := []vote.Candidate{
		{Pos: path[0]},
		{Pos: path[0].Add(geom.Vec2{X: 0.45, Z: 0.3})},
	}
	ms, err := tr.NewMultiStream(cands, samples[0], MultiConfig{RetireMargin: -1})
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
	if ms.Active() < 2 {
		t.Fatalf("active hypotheses = %d, want ≥2", ms.Active())
	}
	if allocs != 0 {
		t.Fatalf("MultiStream.Push allocates %v allocs/op in steady state, want 0", allocs)
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
	if ms.SearchEvals() <= 0 || ms.Hypotheses() != 1 {
		t.Fatalf("evals=%d hyps=%d", ms.SearchEvals(), ms.Hypotheses())
	}
}
