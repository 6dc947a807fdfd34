package antenna

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
)

var (
	carrier = phys.DefaultCarrier()
	lambda  = carrier.WavelengthM
)

func mustPair(t *testing.T, i, j Antenna, link phys.Link) Pair {
	t.Helper()
	p, err := NewPair(i, j, carrier, link)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPairValidation(t *testing.T) {
	a := Antenna{ID: 1, ReaderID: 0, Pos: geom.Vec3{}}
	b := Antenna{ID: 2, ReaderID: 0, Pos: geom.Vec3{X: 1}}
	if _, err := NewPair(a, b, carrier, phys.Backscatter); err != nil {
		t.Fatal(err)
	}
	crossReader := Antenna{ID: 3, ReaderID: 1, Pos: geom.Vec3{X: 2}}
	if _, err := NewPair(a, crossReader, carrier, phys.Backscatter); err == nil {
		t.Fatal("pair across readers must be rejected (uncalibrated offset)")
	}
	if _, err := NewPair(a, a, carrier, phys.Backscatter); err == nil {
		t.Fatal("coincident pair must be rejected")
	}
}

func TestLobeCountGrowsLinearly(t *testing.T) {
	// §3.2: for D = K·λ/2 (one-way), k can take K values; our count is
	// 2·floor(F·D/λ)+1 covering both sides of broadside.
	cases := []struct {
		sepWavelengths float64
		link           phys.Link
		wantMax        int
	}{
		{0.5, phys.OneWay, 0},       // λ/2, one-way: single beam
		{0.25, phys.Backscatter, 0}, // λ/4, backscatter: single beam (§6)
		{1, phys.OneWay, 1},
		{8, phys.OneWay, 8},
		{8, phys.Backscatter, 16}, // the prototype's wide pairs
	}
	for _, tc := range cases {
		p := mustPair(t,
			Antenna{ID: 1, Pos: geom.Vec3{}},
			Antenna{ID: 2, Pos: geom.Vec3{X: tc.sepWavelengths * lambda}},
			tc.link)
		if got := p.MaxLobeIndex(); got != tc.wantMax {
			t.Errorf("sep=%vλ link=%v: MaxLobeIndex=%d, want %d", tc.sepWavelengths, tc.link, got, tc.wantMax)
		}
		if got := p.LobeCount(); got != 2*tc.wantMax+1 {
			t.Errorf("LobeCount=%d", got)
		}
	}
}

func TestSeparationHelpers(t *testing.T) {
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		phys.Backscatter)
	if math.Abs(p.Separation()-8*lambda) > 1e-12 {
		t.Fatal("separation")
	}
	if math.Abs(p.SeparationWavelengths()-8) > 1e-9 {
		t.Fatal("separation in wavelengths")
	}
	if math.Abs(p.EffectiveTurnsSpan()-16) > 1e-9 {
		t.Fatal("effective turns span should double for backscatter")
	}
}

func TestIdealPhaseDiffConsistentWithEq2(t *testing.T) {
	// For any source, the ideal measured turns and the true ΔdTurns must
	// differ by an integer (Eq. 2's k).
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		phys.Backscatter)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		pos := geom.Vec3{X: rng.Float64()*4 - 1, Y: 1 + rng.Float64()*4, Z: rng.Float64() * 2}
		turns := p.IdealPhaseDiffTurns(pos)
		k := p.DeltaDistTurns(pos) - turns
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Fatalf("pos %v: Δd turns %v and measured %v differ by non-integer %v",
				pos, p.DeltaDistTurns(pos), turns, k)
		}
		if turns <= -0.5-1e-12 || turns > 0.5+1e-12 {
			t.Fatalf("measured turns %v out of (−0.5, 0.5]", turns)
		}
	}
}

func TestVoteFreeZeroOnTruth(t *testing.T) {
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		phys.Backscatter)
	src := geom.Vec3{X: 1.2, Y: 2, Z: 0.7}
	turns := p.IdealPhaseDiffTurns(src)
	if v := p.VoteFree(src, turns); v < -1e-12 {
		t.Fatalf("vote at the true source = %v, want 0", v)
	}
	// A point slightly off the lobe must vote strictly lower.
	off := geom.Vec3{X: 1.2 + 0.03, Y: 2, Z: 0.7}
	if v := p.VoteFree(off, turns); v >= -1e-9 {
		t.Fatalf("off-lobe vote = %v, want < 0", v)
	}
}

func TestVoteFreePeriodicAmbiguity(t *testing.T) {
	// A wide pair cannot distinguish positions whose ΔdTurns differ by an
	// integer — they all get a ≈0 vote (the grating-lobe ambiguity).
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		phys.Backscatter)
	src := geom.Vec3{X: 1.2, Y: 2, Z: 0.7}
	turns := p.IdealPhaseDiffTurns(src)
	// Find another x with ΔdTurns exactly one greater (next lobe) by
	// bisection along x.
	target := p.DeltaDistTurns(src) + 1
	lo, hi := 1.2, 3.5
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if p.DeltaDistTurns(geom.Vec3{X: mid, Y: 2, Z: 0.7}) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	ghost := geom.Vec3{X: (lo + hi) / 2, Y: 2, Z: 0.7}
	if v := p.VoteFree(ghost, turns); v < -1e-6 {
		t.Fatalf("ghost lobe vote = %v, want ≈0 (ambiguity)", v)
	}
	// The coarse pair, in contrast, must reject the ghost.
	coarse := mustPair(t,
		Antenna{ID: 5, Pos: geom.Vec3{X: 1.0}},
		Antenna{ID: 6, Pos: geom.Vec3{X: 1.0 + lambda/4}},
		phys.Backscatter)
	cTurns := coarse.IdealPhaseDiffTurns(src)
	vTrue := coarse.VoteFree(src, cTurns)
	vGhost := coarse.VoteFree(ghost, cTurns)
	if vGhost >= vTrue-1e-9 {
		t.Fatalf("coarse pair should penalise the ghost: true=%v ghost=%v", vTrue, vGhost)
	}
}

func TestNearestLobeAndVoteFixed(t *testing.T) {
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		phys.Backscatter)
	src := geom.Vec3{X: 0.9, Y: 2.2, Z: 0.4}
	turns := p.IdealPhaseDiffTurns(src)
	k := p.NearestLobe(src, turns)
	want := p.DeltaDistTurns(src) - turns
	if math.Abs(float64(k)-want) > 1e-6 {
		t.Fatalf("NearestLobe = %d, want %v", k, want)
	}
	if v := p.VoteFixed(src, turns, k); v < -1e-12 {
		t.Fatalf("fixed vote at truth = %v", v)
	}
	// Wrong k votes poorly.
	if v := p.VoteFixed(src, turns, k+3); v > -1 {
		t.Fatalf("vote with k+3 = %v, want ≤ −9-ish", v)
	}
	// Lobe index clamps to the valid range.
	if got := p.NearestLobe(geom.Vec3{X: 100, Y: 0.01, Z: 0}, 0); got > p.MaxLobeIndex() || got < -p.MaxLobeIndex() {
		t.Fatalf("NearestLobe %d outside ±%d", got, p.MaxLobeIndex())
	}
}

func TestPhaseDiffTurnsWraps(t *testing.T) {
	if got := PhaseDiffTurns(0.1, 0.1+math.Pi); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("half-turn diff = %v", got)
	}
	if got := PhaseDiffTurns(0.1, 0.1+3*math.Pi); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("wrapped diff = %v", got)
	}
	if got := PhaseDiffTurns(1, 1); got != 0 {
		t.Fatalf("zero diff = %v", got)
	}
}

func TestNewULAValidation(t *testing.T) {
	if _, err := NewULA(0, 1, 1, geom.Vec3{}, geom.Vec3{X: 0.1}, carrier, phys.Backscatter); err == nil {
		t.Fatal("1-element array must be rejected")
	}
	if _, err := NewULA(0, 1, 4, geom.Vec3{}, geom.Vec3{}, carrier, phys.Backscatter); err == nil {
		t.Fatal("zero step must be rejected")
	}
	a, err := NewULA(0, 1, 4, geom.Vec3{}, geom.Vec3{X: lambda / 4}, carrier, phys.Backscatter)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Elements) != 4 {
		t.Fatal("element count")
	}
	if a.Elements[3].ID != 4 {
		t.Fatal("IDs should be sequential")
	}
	wantCenter := geom.Vec3{X: 1.5 * lambda / 4}
	if a.Center().Dist(wantCenter) > 1e-12 {
		t.Fatalf("center = %v", a.Center())
	}
	if a.Axis().Dist(geom.Vec3{X: 1}) > 1e-12 {
		t.Fatalf("axis = %v", a.Axis())
	}
}

func TestBartlettRecoversAoA(t *testing.T) {
	// A noiseless far-field source must produce a spectrum peak at its
	// true angle.
	a, err := NewULA(0, 1, 4, geom.Vec3{}, geom.Vec3{X: lambda / 4}, carrier, phys.Backscatter)
	if err != nil {
		t.Fatal(err)
	}
	for _, trueTheta := range []float64{math.Pi / 3, math.Pi / 2, 2 * math.Pi / 3} {
		// Place a far source at the given angle from the array axis (x).
		src := geom.Vec3{X: 50 * math.Cos(trueTheta), Y: 50 * math.Sin(trueTheta)}
		phases := make([]float64, len(a.Elements))
		for i, e := range a.Elements {
			phases[i] = phys.PathPhase(carrier, phys.Backscatter, e.Pos.Dist(src))
		}
		got, err := a.PeakAoA(phases, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-trueTheta) > 0.02 {
			t.Errorf("AoA = %v, want %v", got, trueTheta)
		}
	}
}

func TestBartlettSpectrumErrors(t *testing.T) {
	a, _ := NewULA(0, 1, 4, geom.Vec3{}, geom.Vec3{X: lambda / 4}, carrier, phys.Backscatter)
	if _, err := a.BartlettSpectrum([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("phase count mismatch must error")
	}
	if _, err := a.PeakAoA([]float64{1, 2, 3, 4}, 1); err == nil {
		t.Fatal("nTheta < 2 must error")
	}
}

func TestDirectionRayGeometry(t *testing.T) {
	a, _ := NewULA(0, 1, 4, geom.Vec3{}, geom.Vec3{X: lambda / 4}, carrier, phys.Backscatter)
	plane := geom.Plane{Y: 2}
	// Broadside (θ = π/2) from an x-axis array points along +z in the
	// writing plane (the in-plane normal).
	ray := a.DirectionRay(math.Pi/2, plane)
	if math.Abs(ray.Dir.X) > 1e-9 || ray.Dir.Z <= 0 {
		t.Fatalf("broadside dir = %v, want +z", ray.Dir)
	}
	// Endfire (θ = 0) points along +x.
	ray = a.DirectionRay(0, plane)
	if math.Abs(ray.Dir.Z) > 1e-9 || ray.Dir.X <= 0 {
		t.Fatalf("endfire dir = %v, want +x", ray.Dir)
	}
}

func TestBeamPatternPeaksAtSource(t *testing.T) {
	p := mustPair(t,
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: lambda / 4}},
		phys.Backscatter)
	plane := geom.Plane{Y: 2}
	src := geom.Vec2{X: 0.5, Z: 0.3}
	turns := p.IdealPhaseDiffTurns(plane.To3D(src))
	pts := []geom.Vec2{src, {X: 2.0, Z: 1.5}}
	gains := p.BeamPattern(pts, plane, turns, 0.05)
	if gains[0] < 0.999 {
		t.Fatalf("gain at source = %v, want ≈1", gains[0])
	}
	if gains[1] >= gains[0] {
		t.Fatalf("distant point gain %v should be below source gain %v", gains[1], gains[0])
	}
}

// Property: VoteFree is always in [−0.25, 0] (the residual to the nearest
// integer is at most 1/2 when unclamped; clamping can exceed it only for
// unreachable positions, which we exclude by construction).
func TestQuickVoteFreeRange(t *testing.T) {
	p, _ := NewPair(
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		carrier, phys.Backscatter)
	f := func(x, y, z, mt float64) bool {
		pos := geom.Vec3{X: math.Mod(x, 4), Y: 0.5 + math.Abs(math.Mod(y, 5)), Z: math.Mod(z, 2)}
		turns := wrapHalf(mt)
		for _, v := range []float64{pos.X, pos.Y, pos.Z, turns} {
			if math.IsNaN(v) {
				return true
			}
		}
		v := p.VoteFree(pos, turns)
		return v <= 1e-12 && v >= -0.25-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: VoteFixed(pos, t, k) ≤ VoteFree(pos, wrapHalf(t)) + ε whenever k
// is in range — the free vote picks the best lobe.
func TestQuickVoteFixedBelowFree(t *testing.T) {
	p, _ := NewPair(
		Antenna{ID: 1, Pos: geom.Vec3{}},
		Antenna{ID: 2, Pos: geom.Vec3{X: 8 * lambda}},
		carrier, phys.Backscatter)
	f := func(x, y, k int) bool {
		pos := geom.Vec3{X: float64(x%40) * 0.1, Y: 1 + float64(y%30)*0.1, Z: 0.5}
		if pos.Y < 0.5 {
			pos.Y = 2
		}
		turns := p.IdealPhaseDiffTurns(pos)
		kk := k % (p.MaxLobeIndex() + 1)
		return p.VoteFixed(pos, turns, kk) <= p.VoteFree(pos, turns)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVoteFreeRoundToEvenMatchesRound: voteFree picks the nearest lobe
// with math.RoundToEven; the vote must equal the one math.Round gives,
// bit for bit. The two roundings differ only at exact ties n + ½, so the
// table holds every tie at and around the ±maxK clamp for maxK 0, 1 and
// 16, their float neighbours, ±0, NaN and ±Inf.
func TestVoteFreeRoundToEvenMatchesRound(t *testing.T) {
	withRound := func(frac, maxK float64) float64 {
		k := math.Round(frac)
		if k > maxK {
			k = maxK
		} else if k < -maxK {
			k = -maxK
		}
		r := frac - k
		return -r * r
	}
	for _, maxK := range []float64{0, 1, 16} {
		fracs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for n := -maxK - 2; n <= maxK+2; n++ {
			for _, tie := range []float64{n + 0.5, n - 0.5} {
				fracs = append(fracs, tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)))
			}
		}
		for _, frac := range fracs {
			// turns − 0 is turns, so frac reaches the rounding as is.
			got, want := voteFree(frac, 0, maxK), withRound(frac, maxK)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("maxK %v, frac %v: vote %v, with Round %v", maxK, frac, got, want)
			}
		}
	}
}
