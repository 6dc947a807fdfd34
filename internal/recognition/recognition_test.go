package recognition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rfidraw/internal/corpus"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/traj"
)

func newRec(t testing.TB) *Recognizer {
	t.Helper()
	r, err := New(corpus.All())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestClassifyCleanGlyphs(t *testing.T) {
	// Every noiseless glyph must classify as itself.
	r := newRec(t)
	for _, ru := range handwriting.Alphabet() {
		g, _ := handwriting.GlyphFor(ru)
		c, err := r.Classify(g.Points)
		if err != nil {
			t.Fatal(err)
		}
		if c.Rune != ru {
			t.Errorf("glyph %q classified as %q", ru, c.Rune)
		}
		if c.Distance > 1e-9 {
			t.Errorf("glyph %q self-distance = %v", ru, c.Distance)
		}
	}
}

func TestClassifyInvariances(t *testing.T) {
	// Translation and uniform scaling must not change the result.
	r := newRec(t)
	g, _ := handwriting.GlyphFor('w')
	moved := make([]geom.Vec2, len(g.Points))
	for i, p := range g.Points {
		moved[i] = p.Scale(3.7).Add(geom.Vec2{X: 10, Z: -4})
	}
	c, err := r.Classify(moved)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rune != 'w' {
		t.Fatalf("scaled+shifted 'w' classified as %q", c.Rune)
	}
}

func TestClassifyHandwrittenLetters(t *testing.T) {
	// Letters written with random user styles (slant, jitter) must still
	// classify correctly in the overwhelming majority of cases.
	r := newRec(t)
	rng := rand.New(rand.NewSource(31))
	total, correct := 0, 0
	for trial := 0; trial < 6; trial++ {
		style := handwriting.RandomStyle(rng)
		for _, ru := range handwriting.Alphabet() {
			w, err := handwriting.Write(string(ru), geom.Vec2{}, style, rng)
			if err != nil {
				t.Fatal(err)
			}
			c, err := r.Classify(w.Traj.Positions())
			if err != nil {
				t.Fatal(err)
			}
			total++
			if c.Rune == ru {
				correct++
			}
		}
	}
	rate := float64(correct) / float64(total)
	if rate < 0.95 {
		t.Fatalf("styled letter accuracy = %.3f, want ≥0.95", rate)
	}
}

func TestClassifyScatterIsChanceLevel(t *testing.T) {
	// Incoherent random scatter (what the AoA baseline produces) must not
	// systematically match any letter: accuracy ≈ 1/26.
	r := newRec(t)
	rng := rand.New(rand.NewSource(32))
	correct := 0
	const trials = 260
	for i := 0; i < trials; i++ {
		target := handwriting.Alphabet()[i%26]
		pts := make([]geom.Vec2, 40)
		for j := range pts {
			pts[j] = geom.Vec2{X: rng.Float64(), Z: rng.Float64()}
		}
		c, err := r.Classify(pts)
		if err != nil {
			t.Fatal(err)
		}
		if c.Rune == target {
			correct++
		}
	}
	rate := float64(correct) / trials
	if rate > 0.15 {
		t.Fatalf("scatter accuracy = %.3f, want chance level", rate)
	}
}

// TestClassifyAllocs gates Classify at three allocations per call: the
// resampled and the normalized shape, and one pair of DTW rows shared by
// every template. Sharing the rows changes no distance: each result is
// bit-identical to comparing against each template with fresh rows.
func TestClassifyAllocs(t *testing.T) {
	r := newRec(t)
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Vec2, 30)
	for trial := 0; trial < 20; trial++ {
		for i := range pts {
			pts[i] = geom.Vec2{X: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		c, err := r.Classify(pts)
		if err != nil {
			t.Fatal(err)
		}
		shape := normalizeShape(pts)
		best, second := math.Inf(1), math.Inf(1)
		for _, tmpl := range r.templates {
			d := dtw(shape, tmpl, r.Window, nil)
			if d < best {
				best, second = d, best
			} else if d < second {
				second = d
			}
		}
		if c.Distance != best || c.Margin != second-best {
			t.Fatalf("trial %d: Classify distance %v margin %v, fresh rows %v and %v", trial, c.Distance, c.Margin, best, second-best)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.Classify(pts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Classify makes %v allocs, want <= 3", allocs)
	}
}

func TestClassifyErrors(t *testing.T) {
	r := newRec(t)
	if _, err := r.Classify(nil); err == nil {
		t.Fatal("empty shape should error")
	}
	if _, err := r.Classify([]geom.Vec2{{X: 1, Z: 1}}); err == nil {
		t.Fatal("single point should error")
	}
}

func TestRecognizeWordCleanAndCorrected(t *testing.T) {
	r := newRec(t)
	w, err := handwriting.Write("clear", geom.Vec2{}, handwriting.DefaultStyle(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := r.RecognizeWord(w.Traj, w.Letters, "clear")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got != "clear" {
		t.Fatalf("got %q ok=%v", got, ok)
	}
}

func TestRecognizeLettersErrors(t *testing.T) {
	r := newRec(t)
	if _, err := r.RecognizeLetters(traj.Trajectory{}, nil); err == nil {
		t.Fatal("no spans should error")
	}
	spans := []handwriting.LetterSpan{{Rune: 'a', Start: 0, End: time.Second}}
	if _, err := r.RecognizeLetters(traj.Trajectory{}, spans); err == nil {
		t.Fatal("empty trajectory should error")
	}
}

func TestCorrectWord(t *testing.T) {
	r := newRec(t)
	// One-letter error within a dictionary word is fixed.
	if got := r.CorrectWord("cleor", 1); got != "clear" {
		t.Fatalf("correction = %q", got)
	}
	// Exact dictionary word is kept.
	if got := r.CorrectWord("play", 1); got != "play" {
		t.Fatalf("exact = %q", got)
	}
	// Garbage beyond maxDist is left alone.
	if got := r.CorrectWord("qqqqqqq", 1); got != "qqqqqqq" {
		t.Fatalf("garbage = %q", got)
	}
	// Without a dictionary, identity.
	nr, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := nr.CorrectWord("cleor", 2); got != "cleor" {
		t.Fatalf("no-dict = %q", got)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"clear", "clear", 0},
		{"clear", "cleat", 1},
	}
	for _, tc := range cases {
		if got := editDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("editDistance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDTWProperties(t *testing.T) {
	a := normalizeShape([]geom.Vec2{{X: 0, Z: 0}, {X: 1, Z: 0}, {X: 1, Z: 1}})
	b := normalizeShape([]geom.Vec2{{X: 0, Z: 0}, {X: 0, Z: 1}, {X: 1, Z: 1}})
	if d := dtw(a, a, 8, nil); d > 1e-12 {
		t.Fatalf("self distance = %v", d)
	}
	dab, dba := dtw(a, b, 8, nil), dtw(b, a, 8, nil)
	if math.Abs(dab-dba) > 1e-9 {
		t.Fatalf("asymmetric: %v vs %v", dab, dba)
	}
	if dab <= 0 {
		t.Fatal("distinct shapes should have positive distance")
	}
	if !math.IsInf(dtw(nil, a, 8, nil), 1) {
		t.Fatal("empty input should be infinite")
	}
	// Degenerate window is clamped.
	if d := dtw(a, a, 0, nil); d > 1e-12 {
		t.Fatalf("window-0 self distance = %v", d)
	}
}

// Property: classification is deterministic and always returns a letter of
// the alphabet with non-negative distance.
func TestQuickClassifyWellFormed(t *testing.T) {
	r := newRec(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Vec2, 12+rng.Intn(40))
		for i := range pts {
			pts[i] = geom.Vec2{X: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		c1, err1 := r.Classify(pts)
		c2, err2 := r.Classify(pts)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1.Rune != c2.Rune || c1.Distance != c2.Distance {
			return false
		}
		return c1.Rune >= 'a' && c1.Rune <= 'z' && c1.Distance >= 0 && c1.Margin >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: edit distance satisfies the triangle inequality on short words.
func TestQuickEditDistanceTriangle(t *testing.T) {
	gen := func(rng *rand.Rand) string {
		n := rng.Intn(6)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		return editDistance(a, c) <= editDistance(a, b)+editDistance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
