package realtime

import (
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/sim"
)

// TestReacquisitionAfterTeleport simulates tracking loss: the tag vanishes
// mid-trace and reappears far away (a user leaving and re-entering the
// field). The locked lobes stop intersecting, the vote collapses, and the
// tracker must reacquire rather than keep emitting garbage.
func TestReacquisitionAfterTeleport(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	// First segment at one location, second far away; observations are
	// continuous in time but the position jumps 1.2 m between them.
	wr1, err := sc.RunWord("on", geom.Vec2{X: 0.5, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	wr2, err := sc.RunWord("go", geom.Vec2{X: 1.7, Z: 1.4}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	reports := reportsFromSamples(wr1, sc.Tag.EPC)
	offset := wr1.SamplesRF[len(wr1.SamplesRF)-1].T + 25*time.Millisecond
	for _, rep := range reportsFromSamples(wr2, sc.Tag.EPC) {
		rep.Time += offset
		reports = append(reports, rep)
	}
	var after int
	for _, rep := range reports {
		ps, err := tr.Offer(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.Time > offset+500*time.Millisecond {
				after++
				// Positions after reacquisition must be near the second
				// word's area, not stuck at the first.
				if p.Pos.X < 1.2 {
					t.Fatalf("post-teleport position %v still near first word", p.Pos)
				}
			}
		}
	}
	if tr.Reacquisitions() == 0 {
		t.Fatal("tracker never detected tracking loss")
	}
	if after == 0 {
		t.Fatal("no positions after reacquisition")
	}
}

// TestNoSpuriousReacquisition: normal continuous writing must not trigger
// the loss detector.
func TestNoSpuriousReacquisition(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := sc.RunWord("clear", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, sc)
	for _, rep := range reportsFromSamples(wr, sc.Tag.EPC) {
		if _, err := tr.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Reacquisitions() != 0 {
		t.Fatalf("spurious reacquisitions: %d", tr.Reacquisitions())
	}
}
