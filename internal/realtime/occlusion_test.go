package realtime

import (
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/rfid"
	"rfidraw/internal/sim"
)

// TestOcclusionReacquireReseeds simulates a mid-stream occlusion: the tag
// vanishes (no reports at all for a second — a hand passing behind a
// body) and reappears writing somewhere else. The tracker must detect the
// collapsed vote record, drop its hypothesis set, re-run acquisition and
// re-seed a fresh multi-stream at the new location.
func TestOcclusionReacquireReseeds(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
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
	// One full second of silence, then the second word far away.
	gap := time.Second
	offset := wr1.SamplesRF[len(wr1.SamplesRF)-1].T + gap
	for _, rep := range reportsFromSamples(wr2, sc.Tag.EPC) {
		rep.Time += offset
		reports = append(reports, rep)
	}
	var before, after int
	for _, rep := range reports {
		ps, err := tr.Offer(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			if p.Time < offset-gap/2 {
				before++
			}
			if p.Time > offset+500*time.Millisecond {
				after++
				// Recovered positions must be near the second word, not
				// coasting at the first.
				if p.Pos.X < 1.2 {
					t.Fatalf("post-occlusion position %v still near first word", p.Pos)
				}
				if p.Hypotheses <= 0 {
					t.Fatalf("re-seeded stream lost its hypothesis count: %+v", p)
				}
			}
		}
	}
	if before == 0 {
		t.Fatal("no positions before the occlusion")
	}
	if tr.Reacquisitions() == 0 {
		t.Fatal("tracker never detected the occlusion")
	}
	if after == 0 {
		t.Fatal("no positions after reacquisition")
	}
	if !tr.Started() {
		t.Fatal("tracker did not re-seed after reacquisition")
	}
}

// TestMaxAcquireBufferBoundsMemory: a tag whose acquisition can never
// succeed (only one antenna ever heard) fails terminally once the
// configured buffer bound is reached instead of buffering forever.
func TestMaxAcquireBufferBoundsMemory(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	base := newTracker(t, sc).cfg
	tr, err := NewTracker(Config{
		System:           base.System,
		SweepInterval:    base.SweepInterval,
		MaxAcquireBuffer: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 100 && lastErr == nil; i++ {
		_, lastErr = tr.Offer(rfid.Report{
			Time:      time.Duration(i) * base.SweepInterval,
			AntennaID: 1,
			PhaseRad:  0.5,
		})
	}
	if lastErr == nil {
		t.Fatal("unacquirable tag never hit the buffer bound")
	}
	if tr.Buffered() > 13 {
		t.Fatalf("buffered %d samples past the bound of 12", tr.Buffered())
	}
}

// TestMaxAcquireBufferValidation: the bound must leave room for the
// warmup itself.
func TestMaxAcquireBufferValidation(t *testing.T) {
	sc, err := sim.New(sim.Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	base := newTracker(t, sc).cfg
	if _, err := NewTracker(Config{
		System:           base.System,
		SweepInterval:    base.SweepInterval,
		MaxAcquireBuffer: DefaultWarmupSamples - 1,
	}); err == nil {
		t.Fatal("MaxAcquireBuffer < DefaultWarmupSamples should be rejected")
	}
}
