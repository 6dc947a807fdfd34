// Package phys provides the RF physics primitives the rest of the system is
// built on: carrier/wavelength bookkeeping, wrapped-phase arithmetic, and
// unit helpers.
//
// Conventions used throughout the repository:
//
//   - Phases are in radians and, when "wrapped", live in [0, 2π).
//   - Phase differences are wrapped to (−π, π] by WrapSigned.
//   - Distances are in metres, frequencies in Hz, time in seconds.
//   - A signal's phase rotates by 2π for every wavelength travelled, so the
//     received phase of a one-way path of length d is −2π·d/λ (mod 2π). An
//     RFID backscatter link traverses the path twice, which callers express
//     with TravelFactor (see the Link type).
package phys

import "math"

// SpeedOfLight is the propagation speed used for wavelength computation, in
// metres per second.
const SpeedOfLight = 299792458.0

// TwoPi is 2π, the full phase circle.
const TwoPi = 2 * math.Pi

// Link describes how many times the signal traverses the reader→tag path.
// The equations in the paper (§3.1) are written for a one-way transmitter;
// RFID backscatter doubles every distance term (footnote 3 of the paper).
type Link int

const (
	// OneWay models an active transmitter: the phase reflects the one-way
	// distance from source to receive antenna.
	OneWay Link = 1
	// Backscatter models a passive RFID: the reader's carrier travels to
	// the tag and back, so the phase reflects the round-trip distance.
	Backscatter Link = 2
)

// TravelFactor returns the distance multiplier for the link type: 1 for
// one-way transmission, 2 for backscatter.
func (l Link) TravelFactor() float64 { return float64(l) }

// String implements fmt.Stringer.
func (l Link) String() string {
	switch l {
	case OneWay:
		return "one-way"
	case Backscatter:
		return "backscatter"
	default:
		return "unknown-link"
	}
}

// Carrier bundles the carrier frequency with its derived wavelength. The
// paper's prototype queries tags at 922 MHz (§6).
type Carrier struct {
	// FrequencyHz is the carrier frequency in Hz.
	FrequencyHz float64
	// WavelengthM is the carrier wavelength in metres, c/f.
	WavelengthM float64
}

// NewCarrier returns a Carrier for the given frequency in Hz.
func NewCarrier(freqHz float64) Carrier {
	return Carrier{FrequencyHz: freqHz, WavelengthM: SpeedOfLight / freqHz}
}

// DefaultCarrier is the 922 MHz UHF carrier used by the paper's prototype.
// Its wavelength is ≈32.5 cm, making the 8λ wide-pair separation 2.6 m.
func DefaultCarrier() Carrier { return NewCarrier(922e6) }

// Wrap reduces a phase in radians to the canonical interval [0, 2π).
func Wrap(phase float64) float64 {
	p := modTurn(phase)
	if p < 0 {
		p += TwoPi
	}
	return p
}

// WrapSigned reduces a phase difference to (−π, π]. It is the right wrap for
// comparing two wrapped phases: WrapSigned(a−b) is the smallest rotation
// taking b to a.
func WrapSigned(phase float64) float64 {
	p := modTurn(phase)
	switch {
	case p <= -math.Pi:
		p += TwoPi
	case p > math.Pi:
		p -= TwoPi
	}
	return p
}

// modTurn is math.Mod(phase, TwoPi), bit for bit. Inside one turn,
// |phase| < 2π, Mod returns its argument exactly (its reduction loop
// never runs), so that case skips the call. Below 2π·2^modTurnBands,
// modTurn runs Mod's loop itself: Mod subtracts 2π·2^j for the largest
// j with 2π·2^j ≤ r and repeats on the exact difference, so subtracting
// each turnPow2[j] that fits, for j descending, makes the same
// subtractions in the same order. It starts at j = e − 2, where e is
// r's binary exponent: 2π·2^j ≤ r < 2π·2^(j+1) puts e at j+2 or j+3.
// Larger magnitudes, NaN and ±Inf take Mod.
func modTurn(phase float64) float64 {
	if -TwoPi < phase && phase < TwoPi {
		return phase
	}
	r := math.Abs(phase)
	if !(r < 2*turnPow2[modTurnBands-1]) {
		return math.Mod(phase, TwoPi)
	}
	for j := min(int(math.Float64bits(r)>>52)-1023-2, modTurnBands-1); j >= 0; j-- {
		if r >= turnPow2[j] {
			r -= turnPow2[j]
		}
	}
	return math.Copysign(r, phase)
}

// modTurnBands is how many 2^j bands of turns modTurn reduces without
// math.Mod: |phase| < 2π·2^13, about 8,192 turns.
const modTurnBands = 13

// turnPow2[j] is 2π·2^j, exactly: scaling by a power of two is exact.
var turnPow2 = func() (t [modTurnBands]float64) {
	for j := range t {
		t[j] = math.Ldexp(TwoPi, j)
	}
	return t
}()

// PathPhase returns the wrapped received phase of a pure path of the given
// one-way length in metres: −2π·F·d/λ wrapped to [0, 2π), where F is the
// link's travel factor. This is Eq. 1 of the paper generalised to
// backscatter.
func PathPhase(c Carrier, link Link, distanceM float64) float64 {
	return Wrap(-TwoPi * link.TravelFactor() * distanceM / c.WavelengthM)
}

// UnwrapNext continues a phase-unwrapping sequence: given the previous
// unwrapped value and a new wrapped measurement, it returns the unwrapped
// value closest to prev that is congruent to next (mod 2π). This implements
// the "unwrapping ∆φ" step of the tracing algorithm (§5.2).
func UnwrapNext(prevUnwrapped, nextWrapped float64) float64 {
	return prevUnwrapped + WrapSigned(nextWrapped-prevUnwrapped)
}

// UnwrapSeries unwraps a whole series of wrapped phases in place, starting
// from the first sample. The result is a continuous phase track whose
// element-to-element steps are all within (−π, π].
func UnwrapSeries(wrapped []float64) []float64 {
	if len(wrapped) == 0 {
		return nil
	}
	out := make([]float64, len(wrapped))
	out[0] = wrapped[0]
	for i := 1; i < len(wrapped); i++ {
		out[i] = UnwrapNext(out[i-1], wrapped[i])
	}
	return out
}

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// AmplitudeFromDB converts a power gain in dB to an amplitude (field) gain.
func AmplitudeFromDB(db float64) float64 { return math.Pow(10, db/20) }
