package sim

import (
	"testing"
	"time"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
)

func TestNewScenarioDefaults(t *testing.T) {
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Prop != LOS {
		t.Fatal("default prop should be LOS")
	}
	if s.Plane.Y != 2 {
		t.Fatalf("default distance = %v", s.Plane.Y)
	}
	if s.RFIDraw == nil || s.Baseline == nil || s.Env == nil {
		t.Fatal("incomplete scenario")
	}
	if s.Env.DirectGain != 1 {
		t.Fatal("LOS should have unit direct gain")
	}
	if s.RNG() == nil {
		t.Fatal("missing rng")
	}
}

func TestNewScenarioNLOS(t *testing.T) {
	s, err := New(Config{Prop: NLOS, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.DirectGain >= 1 {
		t.Fatal("NLOS should attenuate the direct path")
	}
	if len(s.Env.Scatterers) < 8 {
		t.Fatalf("NLOS scatterers = %d", len(s.Env.Scatterers))
	}
	if LOS.String() != "LOS" || NLOS.String() != "NLOS" {
		t.Fatal("prop strings")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	run := func() *WordRun {
		s, err := New(Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		wr, err := s.RunWord("play", geom.Vec2{X: 0.8, Z: 1.0}, handwriting.DefaultStyle())
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	a, b := run(), run()
	if a.Truth.Len() != b.Truth.Len() || len(a.SamplesRF) != len(b.SamplesRF) {
		t.Fatal("scenario not deterministic")
	}
	for i := range a.SamplesRF {
		if a.SamplesRF[i].Phase.Len() != b.SamplesRF[i].Phase.Len() {
			t.Fatal("phase streams differ across identical seeds")
		}
		for id, ph := range a.SamplesRF[i].Phase.All() {
			if got, _ := b.SamplesRF[i].Phase.Phase(id); got != ph {
				t.Fatal("phase streams differ across identical seeds")
			}
		}
	}
}

func TestRunWordShapes(t *testing.T) {
	s, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wr, err := s.RunWord("clear", geom.Vec2{X: 0.6, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		t.Fatal(err)
	}
	if wr.Word.Text != "clear" || len(wr.Word.Letters) != 5 {
		t.Fatal("word metadata")
	}
	if wr.Truth.Len() == 0 {
		t.Fatal("no ground truth")
	}
	if len(wr.SamplesRF) < 20 || len(wr.SamplesBL) < 20 {
		t.Fatalf("sample counts = %d / %d", len(wr.SamplesRF), len(wr.SamplesBL))
	}
	// RF samples cover all 8 antennas in steady state.
	mid := wr.SamplesRF[len(wr.SamplesRF)/2]
	if mid.Phase.Len() < 6 {
		t.Fatalf("mid-trace sample has only %d phases", mid.Phase.Len())
	}
	// Time-ordered.
	for i := 1; i < len(wr.SamplesRF); i++ {
		if wr.SamplesRF[i].T <= wr.SamplesRF[i-1].T {
			t.Fatal("samples out of order")
		}
	}
}

func TestRunWordErrors(t *testing.T) {
	s, err := New(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWord("", geom.Vec2{}, handwriting.DefaultStyle()); err == nil {
		t.Fatal("empty word should error")
	}
}

func TestStaticRun(t *testing.T) {
	s, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rf, bl, err := s.StaticRun(geom.Vec2{X: 1.3, Z: 1.0}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf) < 10 || len(bl) < 10 {
		t.Fatalf("static sample counts = %d / %d", len(rf), len(bl))
	}
}

func TestFarTagMostlyLost(t *testing.T) {
	// Beyond the reader's range the tag cannot harvest energy (§8.1
	// footnote); observation should fail or be extremely sparse.
	s, err := New(Config{Seed: 6, Distance: 12})
	if err != nil {
		t.Fatal(err)
	}
	rf, _, err := s.StaticRun(geom.Vec2{X: 1.3, Z: 1.0}, 500*time.Millisecond)
	if err == nil {
		// Occasional lucky reads are acceptable; full coverage is not.
		complete := 0
		for _, smp := range rf {
			if smp.Phase.Len() == 8 {
				complete++
			}
		}
		if complete > len(rf)/2 {
			t.Fatalf("12 m tag produced %d/%d complete samples", complete, len(rf))
		}
	}
}

func TestRunWordsMultiTag(t *testing.T) {
	s, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.RunWords([]string{"hi", "go", "on"},
		[]geom.Vec2{{X: 0.4, Z: 1.3}, {X: 1.6, Z: 0.7}, {X: 1.0, Z: 1.6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Tags) != 3 || len(run.SamplesRF) != 3 {
		t.Fatalf("got %d tags, %d sample streams", len(run.Tags), len(run.SamplesRF))
	}
	if run.Tags[0].EPC != s.Tag.EPC {
		t.Fatal("tag 0 should be the scenario's own tag")
	}
	seen := map[string]bool{}
	for i, tag := range run.Tags {
		if seen[tag.EPC.String()] {
			t.Fatalf("duplicate EPC %s", tag.EPC)
		}
		seen[tag.EPC.String()] = true
		if len(run.SamplesRF[i]) < 10 {
			t.Fatalf("tag %d has only %d samples", i, len(run.SamplesRF[i]))
		}
	}
	// Raw streams: one per reader, in time order, with all three EPCs.
	if len(run.ReportsRF) != 2 {
		t.Fatalf("got %d report streams", len(run.ReportsRF))
	}
	for ri, reports := range run.ReportsRF {
		epcs := map[string]bool{}
		for i, rep := range reports {
			if i > 0 && rep.Time < reports[i-1].Time {
				t.Fatalf("reader %d reports out of order at %d", ri, i)
			}
			epcs[rep.EPC.String()] = true
		}
		if len(epcs) != 3 {
			t.Fatalf("reader %d heard %d tags, want 3", ri, len(epcs))
		}
	}
}

func TestRunWordsMismatchedInputs(t *testing.T) {
	s, err := New(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWords([]string{"hi"}, nil); err == nil {
		t.Fatal("mismatched texts/starts should error")
	}
}
