package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewCarrierWavelength(t *testing.T) {
	c := NewCarrier(922e6)
	want := SpeedOfLight / 922e6
	if !almostEqual(c.WavelengthM, want, 1e-12) {
		t.Fatalf("wavelength = %v, want %v", c.WavelengthM, want)
	}
	if c.WavelengthM < 0.32 || c.WavelengthM > 0.33 {
		t.Fatalf("922 MHz wavelength should be ≈32.5 cm, got %v m", c.WavelengthM)
	}
}

func TestDefaultCarrierEightLambda(t *testing.T) {
	// The paper states the 8λ wide-pair separation is 2.6 m (§6).
	c := DefaultCarrier()
	if got := 8 * c.WavelengthM; math.Abs(got-2.6) > 0.01 {
		t.Fatalf("8λ = %v m, want ≈2.6 m", got)
	}
}

func TestWrapRange(t *testing.T) {
	cases := []float64{0, 1, -1, math.Pi, -math.Pi, TwoPi, -TwoPi, 7 * TwoPi, -9.5, 123.456}
	for _, in := range cases {
		got := Wrap(in)
		if got < 0 || got >= TwoPi {
			t.Errorf("Wrap(%v) = %v out of [0, 2π)", in, got)
		}
		// Congruence mod 2π.
		if d := math.Mod(got-in, TwoPi); !almostEqual(math.Abs(WrapSigned(d)), 0, 1e-9) {
			t.Errorf("Wrap(%v) = %v not congruent mod 2π", in, got)
		}
	}
}

func TestWrapSignedRange(t *testing.T) {
	cases := []float64{0, 3, -3, math.Pi, -math.Pi, math.Pi + 0.1, -math.Pi - 0.1, 100, -100}
	for _, in := range cases {
		got := WrapSigned(in)
		if got <= -math.Pi || got > math.Pi {
			t.Errorf("WrapSigned(%v) = %v out of (−π, π]", in, got)
		}
	}
}

func TestWrapSignedExactBoundary(t *testing.T) {
	if got := WrapSigned(math.Pi); !almostEqual(got, math.Pi, 1e-12) {
		t.Fatalf("WrapSigned(π) = %v, want π", got)
	}
	if got := WrapSigned(-math.Pi); !almostEqual(got, math.Pi, 1e-12) {
		t.Fatalf("WrapSigned(−π) = %v, want π (wrapped up)", got)
	}
}

func TestPathPhaseWholeWavelengths(t *testing.T) {
	c := NewCarrier(1e9) // λ ≈ 0.2998 m
	for k := 1; k < 5; k++ {
		d := float64(k) * c.WavelengthM
		if got := PathPhase(c, OneWay, d); !almostEqual(got, 0, 1e-6) && !almostEqual(got, TwoPi, 1e-6) {
			t.Errorf("one-way phase over %d whole wavelengths = %v, want ≈0", k, got)
		}
	}
}

func TestPathPhaseBackscatterDoubles(t *testing.T) {
	c := DefaultCarrier()
	d := 1.2345
	one := PathPhase(c, OneWay, d)
	rt := PathPhase(c, Backscatter, d)
	if !almostEqual(rt, Wrap(2*(-TwoPi*d/c.WavelengthM)), 1e-9) {
		t.Fatalf("backscatter phase %v inconsistent with doubled one-way", rt)
	}
	// The quarter-wavelength path is a half-turn round trip.
	q := PathPhase(c, Backscatter, c.WavelengthM/4)
	if !almostEqual(q, math.Pi, 1e-9) {
		t.Fatalf("λ/4 backscatter phase = %v, want π", q)
	}
	_ = one
}

func TestUnwrapNextContinuity(t *testing.T) {
	// A phase ramp crossing the 2π boundary must unwrap monotonically.
	var prev float64
	step := 0.4
	unwrapped := 0.0
	for i := 0; i < 100; i++ {
		truth := float64(i) * step
		wrapped := Wrap(truth)
		if i == 0 {
			unwrapped = wrapped
		} else {
			unwrapped = UnwrapNext(prev, wrapped)
		}
		if !almostEqual(unwrapped, truth, 1e-9) {
			t.Fatalf("step %d: unwrapped %v, want %v", i, unwrapped, truth)
		}
		prev = unwrapped
	}
}

func TestUnwrapSeries(t *testing.T) {
	truth := make([]float64, 200)
	wrapped := make([]float64, 200)
	for i := range truth {
		truth[i] = -0.5 + 0.31*float64(i) // crosses many boundaries
		wrapped[i] = Wrap(truth[i])
	}
	got := UnwrapSeries(wrapped)
	// The unwrapped series may differ from truth by a constant multiple of
	// 2π fixed by the first sample; check the differences instead.
	for i := 1; i < len(got); i++ {
		want := truth[i] - truth[i-1]
		if d := got[i] - got[i-1]; !almostEqual(d, want, 1e-9) {
			t.Fatalf("step %d: delta %v, want %v", i, d, want)
		}
	}
	if UnwrapSeries(nil) != nil {
		t.Fatal("UnwrapSeries(nil) should be nil")
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, r := range []float64{0.001, 0.5, 1, 2, 1000} {
		if got := FromDB(DB(r)); !almostEqual(got, r, 1e-9*r) {
			t.Errorf("FromDB(DB(%v)) = %v", r, got)
		}
	}
	if !almostEqual(AmplitudeFromDB(20), 10, 1e-9) {
		t.Fatal("20 dB should be 10× amplitude")
	}
}

func TestLinkStrings(t *testing.T) {
	if OneWay.String() != "one-way" || Backscatter.String() != "backscatter" {
		t.Fatal("unexpected Link strings")
	}
	if Link(7).String() != "unknown-link" {
		t.Fatal("unknown link string")
	}
	if OneWay.TravelFactor() != 1 || Backscatter.TravelFactor() != 2 {
		t.Fatal("travel factors wrong")
	}
}

// Property: Wrap is idempotent and congruent mod 2π.
func TestQuickWrapIdempotent(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		w := Wrap(x)
		return almostEqual(Wrap(w), w, 1e-9) && w >= 0 && w < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WrapSigned(a−b) applied to b recovers a up to 2π.
func TestQuickWrapSignedRecovers(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e9 || math.Abs(b) > 1e9 {
			return true
		}
		d := WrapSigned(a - b)
		return almostEqual(Wrap(b+d), Wrap(a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: UnwrapNext moves by at most π from prev.
func TestQuickUnwrapNextBounded(t *testing.T) {
	f := func(prev, next float64) bool {
		if math.IsNaN(prev) || math.IsNaN(next) || math.Abs(prev) > 1e9 || math.Abs(next) > 1e9 {
			return true
		}
		u := UnwrapNext(prev, Wrap(next))
		return math.Abs(u-prev) <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickModTurnMatchesMod holds Wrap's and WrapSigned's reduction to
// math.Mod bit for bit: at random phases of every magnitude, at random
// magnitudes in every band 2π·2^j ≤ |x| < 2π·2^(j+1) up to and past the
// bands modTurn reduces itself, at each ±2π·2^j, ±π and their float
// neighbours, at ±0, NaN and ±Inf.
func TestQuickModTurnMatchesMod(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	check := func(x float64) bool {
		if got, want := modTurn(x), math.Mod(x, TwoPi); !same(got, want) {
			t.Logf("modTurn(%v) = %v, math.Mod gives %v", x, got, want)
			return false
		}
		return true
	}
	// bands covers every band modTurn reduces and a few past the fallback.
	const bands = modTurnBands + 3
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	bounds := []float64{math.Pi}
	for j := 0; j <= bands; j++ {
		bounds = append(bounds, math.Ldexp(TwoPi, j))
	}
	for _, b := range bounds {
		for _, s := range []float64{b, -b} {
			edges = append(edges, s, math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
		}
	}
	for _, x := range edges {
		if !check(x) {
			t.Fatalf("edge case %v", x)
		}
	}
	// quick draws float64s over the whole range; u also spreads one
	// across a few turns, where the fast path's boundary lies, and
	// (j, v, neg) places one anywhere in band j.
	f := func(x float64, u int32, j uint8, v uint64, neg bool) bool {
		lo := math.Ldexp(TwoPi, int(j)%bands)
		y := lo + lo*float64(v)/math.MaxUint64
		if y >= 2*lo {
			y = math.Nextafter(2*lo, 0)
		}
		if neg {
			y = -y
		}
		return check(x) && check(float64(u)/math.MaxInt32*3*TwoPi) && check(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
