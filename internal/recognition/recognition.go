// Package recognition is this reproduction's stand-in for the MyScript
// Stylus handwriting recognizer the paper feeds its reconstructed
// trajectories into (§9). It classifies letter-segment shapes by dynamic
// time warping (DTW) against the glyph font's templates, and recognizes
// words by classifying each manually-segmented letter and then applying a
// dictionary correction — mirroring how the paper's pipeline turns
// trajectories into text.
//
// What matters for the evaluation is the recognizer's *qualitative*
// behaviour: shapes that preserve the written form (possibly stretched or
// shifted — RF-IDraw's coherent errors) classify correctly, while
// incoherent scatter (the antenna-array baseline's independent errors)
// classifies at chance level (~1/26, matching the paper's "<4%,
// equivalent to a random guess").
package recognition

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/traj"
)

// TemplatePoints is the number of resampled points per shape.
const TemplatePoints = 48

// Recognizer classifies letter shapes against the glyph templates.
type Recognizer struct {
	runes     []rune
	templates [][]geom.Vec2
	// Window is the DTW Sakoe–Chiba band half-width in samples.
	Window int
	// dict is the word list used for dictionary correction.
	dict []string
}

// New builds a recognizer from the glyph font and an optional dictionary
// (nil disables word correction).
func New(dict []string) (*Recognizer, error) {
	r := &Recognizer{Window: 8, dict: append([]string(nil), dict...)}
	sort.Strings(r.dict)
	for _, ru := range handwriting.Alphabet() {
		g, ok := handwriting.GlyphFor(ru)
		if !ok {
			return nil, fmt.Errorf("recognition: missing glyph %q", ru)
		}
		shape := normalizeShape(g.Points)
		if shape == nil {
			return nil, fmt.Errorf("recognition: degenerate glyph %q", ru)
		}
		r.runes = append(r.runes, ru)
		r.templates = append(r.templates, shape)
	}
	if len(r.runes) == 0 {
		return nil, errors.New("recognition: empty alphabet")
	}
	return r, nil
}

// normalizeShape resamples to TemplatePoints and normalizes translation
// and scale, so classification is invariant to where and how large the
// letter was written — the invariances handwriting recognizers provide.
func normalizeShape(points []geom.Vec2) []geom.Vec2 {
	if len(points) < 2 {
		return nil
	}
	rs := geom.ResamplePolyline(points, TemplatePoints)
	return traj.Normalize(rs)
}

// dtw computes the dynamic-time-warping distance between two equal-length
// normalized shapes with a Sakoe–Chiba band. Its two rows of m+1 cells
// come from rows when it holds 2(m+1), so a caller comparing against
// many templates allocates them once; otherwise dtw makes its own.
func dtw(a, b []geom.Vec2, window int, rows []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window < 1 {
		window = 1
	}
	const inf = math.MaxFloat64 / 4
	if len(rows) < 2*(m+1) {
		rows = make([]float64, 2*(m+1))
	}
	prev, cur := rows[:m+1], rows[m+1:2*(m+1)]
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := i - window
		if lo < 1 {
			lo = 1
		}
		hi := i + window
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1].Dist(b[j-1])
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = d + best
		}
		prev, cur = cur, prev
	}
	return prev[m] / float64(n)
}

// Classification is a ranked classification result.
type Classification struct {
	Rune rune
	// Distance is the DTW distance to the best template; smaller is
	// more confident.
	Distance float64
	// Margin is runner-up distance minus best distance; larger means
	// less ambiguous.
	Margin float64
}

// Classify identifies the letter a shape most resembles. It does not
// retain points.
func (r *Recognizer) Classify(points []geom.Vec2) (Classification, error) {
	shape := normalizeShape(points)
	if shape == nil {
		return Classification{}, errors.New("recognition: shape has fewer than 2 points")
	}
	best, second := math.Inf(1), math.Inf(1)
	bestIdx := -1
	rows := make([]float64, 2*(TemplatePoints+1)) // every template has TemplatePoints
	for i, tmpl := range r.templates {
		d := dtw(shape, tmpl, r.Window, rows)
		if d < best {
			second = best
			best, bestIdx = d, i
		} else if d < second {
			second = d
		}
	}
	return Classification{Rune: r.runes[bestIdx], Distance: best, Margin: second - best}, nil
}

// RecognizeLetters classifies each letter span of a (reconstructed)
// trajectory time-aligned with the written word and returns the raw
// character string before dictionary correction.
func (r *Recognizer) RecognizeLetters(t traj.Trajectory, spans []handwriting.LetterSpan) (string, error) {
	if len(spans) == 0 {
		return "", errors.New("recognition: no letter spans")
	}
	out := make([]rune, 0, len(spans))
	for _, span := range spans {
		pts, err := handwriting.LetterPositions(t, span, TemplatePoints)
		if err != nil {
			return "", err
		}
		c, err := r.Classify(pts)
		if err != nil {
			return "", err
		}
		out = append(out, c.Rune)
	}
	return string(out), nil
}

// CorrectWord snaps a raw character string to the dictionary: the unique
// same-length word with the smallest edit distance wins, provided it is
// within maxDist edits and strictly better than the runner-up. Otherwise
// the raw string is returned unchanged. With no dictionary it is the
// identity.
func (r *Recognizer) CorrectWord(raw string, maxDist int) string {
	if len(r.dict) == 0 {
		return raw
	}
	best, second := math.MaxInt32, math.MaxInt32
	bestWord := raw
	for _, w := range r.dict {
		if abs(len(w)-len(raw)) > maxDist {
			continue
		}
		d := editDistance(raw, w)
		if d < best {
			second = best
			best, bestWord = d, w
		} else if d < second {
			second = d
		}
	}
	if best <= maxDist && best < second {
		return bestWord
	}
	return raw
}

// RecognizeWord runs letter classification plus dictionary correction and
// reports whether the result matches truth — the paper's word-recognition
// success criterion (§9.2).
func (r *Recognizer) RecognizeWord(t traj.Trajectory, spans []handwriting.LetterSpan, truth string) (string, bool, error) {
	raw, err := r.RecognizeLetters(t, spans)
	if err != nil {
		return "", false, err
	}
	got := r.CorrectWord(raw, 1)
	return got, got == truth, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	n, m := len(a), len(b)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
