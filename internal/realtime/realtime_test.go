package realtime

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
	"rfidraw/internal/traj"
)

func newTracker(t testing.TB, sc *sim.Scenario) *Tracker {
	t.Helper()
	sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(Config{System: sys, SweepInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reportsForWord regenerates the raw report streams for a word run by
// re-running the scenario readers. Since Scenario keeps readers private we
// reconstruct reports from merged samples instead: one synthetic report
// per antenna phase per sample.
func reportsFromSamples(wr *sim.WordRun, epc rfid.EPC) []rfid.Report {
	var out []rfid.Report
	for _, s := range wr.SamplesRF {
		for id, ph := range s.Phase.All() {
			out = append(out, rfid.Report{
				Time:      s.T,
				ReaderID:  (id - 1) / 4,
				AntennaID: id,
				EPC:       epc,
				PhaseRad:  ph,
			})
		}
	}
	return out
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(Config{}); err == nil {
		t.Fatal("missing system should error")
	}
	sc, err := sim.New(sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTracker(Config{System: sys}); err == nil {
		t.Fatal("missing sweep interval should error")
	}
}

func TestLiveTrackingMatchesTruth(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("on", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	reports := reportsFromSamples(wr, sc.Tag.EPC)
	var live []Position
	for _, rep := range reports {
		ps, err := tr.Offer(rep)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ps...)
	}
	ps, err := tr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, ps...)
	if !tr.Started() {
		t.Fatal("tracker never acquired")
	}
	if len(live) < 20 {
		t.Fatalf("live positions = %d", len(live))
	}
	// Convert to a trajectory and compare shapes.
	pts := make([]traj.Point, len(live))
	for i, p := range live {
		pts[i] = traj.Point{T: p.Time, Pos: p.Pos}
	}
	med, err := traj.MedianError(wr.Truth, traj.Trajectory{Points: pts}, traj.AlignInitial, 64)
	if err != nil {
		t.Fatal(err)
	}
	if med > 0.08 {
		t.Fatalf("live shape error = %v m", med)
	}
	if tr.MeanVote() > 0 {
		t.Fatal("mean vote must be ≤ 0")
	}
}

func TestLivePositionsAreOrderedAndIncremental(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("go", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	var prev time.Duration = -1
	emitted := 0
	for _, rep := range reportsFromSamples(wr, sc.Tag.EPC) {
		ps, err := tr.Offer(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.Time <= prev {
				t.Fatal("positions out of order")
			}
			prev = p.Time
			emitted++
		}
	}
	if emitted == 0 {
		t.Fatal("no positions emitted before stream end")
	}
}

func TestForeignTagIgnored(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("go", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	reports := reportsFromSamples(wr, sc.Tag.EPC)
	// Interleave reports from a different tag: they must not disturb
	// tracking.
	other := rfid.EPC{9, 9, 9}
	for _, rep := range reports[:40] {
		if _, err := tr.Offer(rep); err != nil {
			t.Fatal(err)
		}
		foreign := rep
		foreign.EPC = other
		foreign.PhaseRad = 0.123
		if ps, err := tr.Offer(foreign); err != nil || len(ps) != 0 {
			t.Fatalf("foreign tag affected tracker: %v %v", ps, err)
		}
	}
}

func TestMergeStreams(t *testing.T) {
	a := []rfid.Report{{Time: 0, AntennaID: 1}, {Time: 50 * time.Millisecond, AntennaID: 1}}
	b := []rfid.Report{{Time: 25 * time.Millisecond, AntennaID: 5}}
	m := MergeStreams(a, b)
	if len(m) != 3 {
		t.Fatal("merge length")
	}
	for i := 1; i < len(m); i++ {
		if m[i].Time < m[i-1].Time {
			t.Fatal("merge out of order")
		}
	}
	if MergeStreams() != nil {
		t.Fatal("empty merge should be nil")
	}
	if MergeStreams(nil, []rfid.Report{}) != nil {
		t.Fatal("all-empty merge should be nil")
	}
}

// mergeStreamsReference is the behaviour MergeStreams replaced:
// concatenate in stream order, then stable-sort by time — the oracle for
// the property test below.
func mergeStreamsReference(streams ...[]rfid.Report) []rfid.Report {
	var out []rfid.Report
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// TestMergeStreamsMatchesReference: over random already-ordered per-reader
// slices (with deliberate duplicate timestamps to probe tie-breaking),
// the k-way heap merge must reproduce the old append-and-stable-sort
// byte for byte, including the order of equal-time reports.
func TestMergeStreamsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		streams := make([][]rfid.Report, rng.Intn(5))
		for si := range streams {
			n := rng.Intn(20)
			tm := time.Duration(0)
			for j := 0; j < n; j++ {
				// Small increments with frequent zero steps produce many
				// within- and cross-stream timestamp collisions.
				tm += time.Duration(rng.Intn(3)) * time.Millisecond
				streams[si] = append(streams[si], rfid.Report{
					Time:      tm,
					ReaderID:  si,
					AntennaID: j,
				})
			}
		}
		got := MergeStreams(streams...)
		want := mergeStreamsReference(streams...)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d reports, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: report %d = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFlushIdempotent is the drain-race regression gate: with no new
// reports between them, repeated Flush calls must close the current
// sweep exactly once. The old behaviour advanced the sweep clock and
// re-snapshotted the held per-antenna phases on every call, so an
// idle drain racing an explicit Flush (or session close) emitted
// duplicate positions from stale data — and a WAL replay of such a
// session diverged from the live trace.
func TestFlushIdempotent(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("hi", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	total := 0
	for _, rep := range reportsFromSamples(wr, sc.Tag.EPC) {
		ps, err := tr.Offer(rep)
		if err != nil {
			t.Fatal(err)
		}
		total += len(ps)
	}
	ps, err := tr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	total += len(ps)
	if total == 0 {
		t.Fatal("stream produced no positions — test premise broken")
	}
	sweepAfterFirst := tr.nextSweep
	for i := 0; i < 3; i++ {
		ps, err := tr.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 0 {
			t.Fatalf("flush %d re-emitted %d positions (first: %+v)", i+2, len(ps), ps[0])
		}
	}
	if tr.nextSweep != sweepAfterFirst {
		t.Fatalf("idle flushes advanced the sweep clock %v -> %v", sweepAfterFirst, tr.nextSweep)
	}
	// The tracker keeps working after idle flushes: a report in the next
	// sweep window is accepted and the pipeline resumes.
	next := rfid.Report{
		Time: sweepAfterFirst + 30*time.Millisecond, ReaderID: 0, AntennaID: 1,
		EPC: sc.Tag.EPC, PhaseRad: 1.0,
	}
	if _, err := tr.Offer(next); err != nil {
		t.Fatalf("offer after idle flushes: %v", err)
	}
	if _, err := tr.Flush(); err != nil {
		t.Fatalf("flush after resume: %v", err)
	}
}

// TestTrackerSweepAllocs gates the live tracker's steady state: once
// acquired, with RecordTrace off, an Offer that closes a sweep makes no
// allocation (its positions come back in the tracker's reused buffer),
// and the reports offered inside the sweep before it make none.
func TestTrackerSweepAllocs(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("clear", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	reports := reportsFromSamples(wr, sc.Tag.EPC)
	next := 0
	offer := func() {
		if _, err := tr.Offer(reports[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < len(reports)/3 {
		offer()
	}
	if !tr.Started() {
		t.Fatal("tracker did not acquire in the first third of the word")
	}
	// One run offers reports up to and including the one that closes
	// the current sweep.
	const runs = 40
	if sweeps := int((reports[len(reports)-1].Time - reports[next].Time) / (25 * time.Millisecond)); sweeps < runs+2 {
		t.Fatalf("only %d sweeps left to measure", sweeps)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		for open := tr.nextSweep; tr.nextSweep == open; {
			offer()
		}
	})
	if tr.Reacquisitions() != 0 || !tr.Started() {
		t.Fatalf("tracking was lost while measuring (%d reacquisitions)", tr.Reacquisitions())
	}
	if allocs != 0 {
		t.Fatalf("a sweep costs %v allocations, want 0", allocs)
	}
}
