package vote

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfidraw/internal/antenna"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
)

var (
	carrier = phys.DefaultCarrier()
	lambda  = carrier.WavelengthM
)

// fig6Deployment builds the paper's Fig. 6d antenna layout: reader A's four
// antennas on the corners of an 8λ square (6 wide pairs), reader B's four
// in two λ/4 pairs plus their cross pairs.
func fig6Deployment(t testing.TB) (stage1, wide []antenna.Pair) {
	t.Helper()
	L := 8 * lambda
	mk := func(id, reader int, x, z float64) antenna.Antenna {
		return antenna.Antenna{ID: id, ReaderID: reader, Pos: geom.Vec3{X: x, Z: z}}
	}
	a1 := mk(1, 0, 0, 0)
	a2 := mk(2, 0, 0, L)
	a3 := mk(3, 0, L, L)
	a4 := mk(4, 0, L, 0)
	a5 := mk(5, 1, -0.3, L/2)
	a6 := mk(6, 1, -0.3, L/2+lambda/4)
	a7 := mk(7, 1, L/2, -0.3)
	a8 := mk(8, 1, L/2+lambda/4, -0.3)
	pair := func(i, j antenna.Antenna) antenna.Pair {
		p, err := antenna.NewPair(i, j, carrier, phys.Backscatter)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wide = []antenna.Pair{
		pair(a1, a2), pair(a2, a3), pair(a3, a4), pair(a4, a1), pair(a1, a3), pair(a2, a4),
	}
	stage1 = []antenna.Pair{
		pair(a5, a6), pair(a7, a8), // unambiguous coarse beams
		pair(a5, a7), pair(a5, a8), pair(a6, a7), pair(a6, a8), // finer filter
	}
	return stage1, stage1 // placeholder, fixed below
}

// deployment returns (stage1Pairs, widePairs) for the Fig. 6d layout.
func deployment(t testing.TB) (stage1, wide []antenna.Pair) {
	stage1, _ = fig6Deployment(t)
	// Rebuild wide pairs (fig6Deployment returns stage1 twice to keep a
	// single construction path for antennas; recompute here).
	L := 8 * lambda
	mk := func(id int, x, z float64) antenna.Antenna {
		return antenna.Antenna{ID: id, ReaderID: 0, Pos: geom.Vec3{X: x, Z: z}}
	}
	a1, a2, a3, a4 := mk(1, 0, 0), mk(2, 0, L), mk(3, L, L), mk(4, L, 0)
	pair := func(i, j antenna.Antenna) antenna.Pair {
		p, err := antenna.NewPair(i, j, carrier, phys.Backscatter)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wide = []antenna.Pair{
		pair(a1, a2), pair(a2, a3), pair(a3, a4), pair(a4, a1), pair(a1, a3), pair(a2, a4),
	}
	return stage1, wide
}

// synthObs builds noiseless observations for a source: one phase per
// antenna appearing in any pair.
func synthObs(pairs []antenna.Pair, src geom.Vec3, noise float64, rng *rand.Rand) Observations {
	var obs Observations
	add := func(a antenna.Antenna) {
		if _, ok := obs.Phase(a.ID); ok {
			return
		}
		ph := phys.PathPhase(carrier, phys.Backscatter, a.Pos.Dist(src))
		if noise > 0 && rng != nil {
			ph += rng.NormFloat64() * noise
		}
		obs.Set(a.ID, phys.Wrap(ph))
	}
	for _, p := range pairs {
		add(p.I)
		add(p.J)
	}
	return obs
}

func testConfig() Config {
	return Config{
		Plane:  geom.Plane{Y: 2},
		Region: geom.Rect{Min: geom.Vec2{X: 0, Z: 0}, Max: geom.Vec2{X: 2.6, Z: 2.0}},
	}
}

func TestNewGridShape(t *testing.T) {
	g, err := NewGrid(geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 1, Z: 0.5}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 11 || g.NZ != 6 {
		t.Fatalf("grid shape = %d×%d", g.NX, g.NZ)
	}
	if g.Len() != 66 {
		t.Fatalf("len = %d", g.Len())
	}
	if g.At(0) != (geom.Vec2{}) {
		t.Fatalf("first point = %v", g.At(0))
	}
	last := g.At(g.Len() - 1)
	if math.Abs(last.X-1) > 1e-9 || math.Abs(last.Z-0.5) > 1e-9 {
		t.Fatalf("last point = %v", last)
	}
	if len(g.Points()) != g.Len() {
		t.Fatal("points length")
	}
	if _, err := NewGrid(geom.Rect{}, 0.1); err == nil {
		t.Fatal("degenerate region should error")
	}
	if _, err := NewGrid(geom.Rect{Max: geom.Vec2{X: 1, Z: 1}}, 0); err == nil {
		t.Fatal("zero resolution should error")
	}
}

func TestPairTurnsMissingPhase(t *testing.T) {
	_, wide := deployment(t)
	obs := ObservationsOf(map[int]float64{1: 0.5}) // antenna 2 missing
	if _, ok := PairTurns(wide[0], &obs); ok {
		t.Fatal("missing phase should report not-ok")
	}
	obs.Set(2, 1.0)
	if _, ok := PairTurns(wide[0], &obs); !ok {
		t.Fatal("complete pair should report ok")
	}
}

func TestNewPositionerValidation(t *testing.T) {
	stage1, wide := deployment(t)
	if _, err := NewPositioner(nil, wide, testConfig()); err == nil {
		t.Fatal("no stage-1 pairs should error")
	}
	if _, err := NewPositioner(stage1, nil, testConfig()); err == nil {
		t.Fatal("no wide pairs should error")
	}
	if _, err := NewPositioner(stage1, wide, Config{Plane: geom.Plane{Y: 2}}); err == nil {
		t.Fatal("degenerate region should error")
	}
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.CoarseRes <= 0 || cfg.FineRes <= 0 || cfg.CandidateCount <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestCandidatesFindNoiselessSource(t *testing.T) {
	stage1, wide := deployment(t)
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, src2 := range []geom.Vec2{{X: 1.3, Z: 1.0}, {X: 0.6, Z: 1.5}, {X: 2.0, Z: 0.7}} {
		src := testConfig().Plane.To3D(src2)
		obs := synthObs(append(stage1, wide...), src, 0, nil)
		cands, err := p.Candidates(obs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		if d := cands[0].Pos.Dist(src2); d > 0.02 {
			t.Errorf("src %v: best candidate %v off by %v m", src2, cands[0].Pos, d)
		}
		if cands[0].Score < -0.01 {
			t.Errorf("noiseless best score = %v, want ≈0", cands[0].Score)
		}
	}
}

func TestCandidatesWithNoiseStayClose(t *testing.T) {
	stage1, wide := deployment(t)
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	src2 := geom.Vec2{X: 1.1, Z: 1.2}
	src := testConfig().Plane.To3D(src2)
	hits := 0
	for trial := 0; trial < 10; trial++ {
		obs := synthObs(append(stage1, wide...), src, 0.15, rng)
		cands, err := p.Candidates(obs)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) > 0 && cands[0].Pos.Dist(src2) < 0.40 {
			hits++
		}
	}
	if hits < 8 {
		t.Fatalf("only %d/10 noisy trials localized within 40 cm", hits)
	}
}

func TestCandidatesRequireEnoughPairs(t *testing.T) {
	stage1, wide := deployment(t)
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Observations covering only antenna 5 and 6: one stage-1 pair.
	src := testConfig().Plane.To3D(geom.Vec2{X: 1, Z: 1})
	full := synthObs(append(stage1, wide...), src, 0, nil)
	var obs Observations
	for _, id := range []int{5, 6} {
		ph, _ := full.Phase(id)
		obs.Set(id, ph)
	}
	if _, err := p.Candidates(obs); err == nil {
		t.Fatal("one stage-1 pair should be insufficient")
	}
}

func TestWideOnlyPositionerIsAmbiguous(t *testing.T) {
	// Ablation: using the wide pairs alone for stage 1 yields candidate
	// ambiguity — far-apart candidates with near-perfect scores.
	_, wide := deployment(t)
	cfg := testConfig()
	cfg.CandidateCount = 8
	cfg.CoarseDelta = 0.02
	p, err := NewPositioner(wide, wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	obs := synthObs(wide, cfg.Plane.To3D(src2), 0, nil)
	cands, err := p.Candidates(obs)
	if err != nil {
		t.Fatal(err)
	}
	farGood := 0
	for _, c := range cands {
		if c.Pos.Dist(src2) > 0.3 && c.Score > -0.02 {
			farGood++
		}
	}
	if farGood == 0 {
		t.Fatal("wide-only voting should produce ambiguous high-score candidates (grating lobes)")
	}
}

func TestScoreAtPeaksAtSource(t *testing.T) {
	stage1, wide := deployment(t)
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	obs := synthObs(append(stage1, wide...), testConfig().Plane.To3D(src2), 0, nil)
	at := p.ScoreAt(src2, obs)
	if at < -1e-9 {
		t.Fatalf("score at source = %v, want 0", at)
	}
	off := p.ScoreAt(geom.Vec2{X: 1.6, Z: 1.3}, obs)
	if off >= at {
		t.Fatalf("off-source score %v should be below source score %v", off, at)
	}
}

func TestVoteMapShape(t *testing.T) {
	stage1, _ := deployment(t)
	g, err := NewGrid(testConfig().Region, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	obs := synthObs(stage1, testConfig().Plane.To3D(src2), 0, nil)
	m := VoteMap(stage1, obs, g, testConfig().Plane)
	if len(m) != g.Len() {
		t.Fatal("map length")
	}
	// The best grid point should be near the source.
	best := 0
	for i, v := range m {
		if v > m[best] {
			best = i
		}
	}
	if g.At(best).Dist(src2) > 0.12 {
		t.Fatalf("vote-map peak %v too far from source %v", g.At(best), src2)
	}
}

// Property: candidate scores are sorted descending and non-positive.
func TestQuickCandidatesSortedAndBounded(t *testing.T) {
	stage1, wide := deployment(t)
	p, err := NewPositioner(stage1, wide, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src2 := geom.Vec2{X: 0.3 + rng.Float64()*2, Z: 0.3 + rng.Float64()*1.4}
		obs := synthObs(append(stage1, wide...), testConfig().Plane.To3D(src2), 0.1, rng)
		cands, err := p.Candidates(obs)
		if err != nil {
			return false
		}
		for i, c := range cands {
			if c.Score > 1e-9 {
				return false
			}
			if i > 0 && cands[i-1].Score < c.Score {
				return false
			}
			if !testConfig().Region.Expand(0.01).Contains(c.Pos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
