package antenna

import (
	"math"

	"rfidraw/internal/geom"
)

// Kernel is the shared Eq. 2 evaluator for a fixed pair list: the tracing
// step's fixed-lobe vote, the positioner's direct free-lobe vote and the
// steering-table build all evaluate F·Δd/λ through it. Pairs share
// antennas (the standard deployment has twelve pairs over eight
// elements), so a position is evaluated in two passes: Distances takes
// every distinct antenna's distance once, then the per-pair methods read
// the pair's two distances from that buffer — one square root per
// antenna instead of two per pair.
//
// Each per-pair value is bit-identical to the Pair method of the same
// name: the distances are the same geom.Vec3.Dist calls and the
// arithmetic after them is shared with those methods, so searches that
// mix kernel and reference values (the positioner seeds its direct
// refinement with steering-table scores) compare equal values. A Kernel
// is immutable after construction and safe for concurrent use; the
// distance buffer is the caller's.
type Kernel struct {
	// ants are the distinct antenna positions, in first-use order.
	ants  []geom.Vec3
	pairs []kernelPair
}

// kernelPair is one pair's slot in the kernel: its two elements' indices
// into the distance buffer and the constants of Eq. 2, kept separate
// (F and λ are not folded into one factor, which would change rounding).
type kernelPair struct {
	i, j   int
	travel float64
	lambda float64
	maxK   float64
}

// NewKernel builds the kernel for pairs; pair p of the kernel is pairs[p].
// Antennas at the same position share one distance slot.
func NewKernel(pairs []Pair) *Kernel {
	k := &Kernel{pairs: make([]kernelPair, len(pairs))}
	slot := func(pos geom.Vec3) int {
		for i, a := range k.ants {
			if a == pos {
				return i
			}
		}
		k.ants = append(k.ants, pos)
		return len(k.ants) - 1
	}
	for p, pr := range pairs {
		k.pairs[p] = kernelPair{
			i:      slot(pr.I.Pos),
			j:      slot(pr.J.Pos),
			travel: pr.Link.TravelFactor(),
			lambda: pr.Carrier.WavelengthM,
			maxK:   float64(pr.MaxLobeIndex()),
		}
	}
	return k
}

// Antennas returns how many distinct antennas the pairs span: the length
// a distance buffer must have.
func (k *Kernel) Antennas() int { return len(k.ants) }

// Distances writes every distinct antenna's distance to pos into dist,
// which must hold at least Antennas() slots.
func (k *Kernel) Distances(pos geom.Vec3, dist []float64) {
	dist = dist[:len(k.ants)]
	for i, a := range k.ants {
		dist[i] = pos.Dist(a)
	}
}

// DeltaDistTurns returns pair p's F·Δd/λ at the position dist was last
// filled for; it equals Pair.DeltaDistTurns there bit for bit.
func (k *Kernel) DeltaDistTurns(p int, dist []float64) float64 {
	kp := &k.pairs[p]
	return deltaDistTurns(kp.travel, dist[kp.i], dist[kp.j], kp.lambda)
}

// DeltaDistTurnsGrad returns pair p's F·Δd/λ at pos, the position dist
// was last filled for, with its derivatives along the room's x and z
// axes (the writing plane's axes): ∂d/∂x = (x − aₓ)/d per element, so
// they are not finite at an element's own position. turns equals
// DeltaDistTurns bit for bit.
func (k *Kernel) DeltaDistTurnsGrad(p int, pos geom.Vec3, dist []float64) (turns, dx, dz float64) {
	kp := &k.pairs[p]
	dI, dJ := dist[kp.i], dist[kp.j]
	aI, aJ := k.ants[kp.i], k.ants[kp.j]
	s := kp.travel / kp.lambda
	dx = s * ((pos.X-aI.X)/dI - (pos.X-aJ.X)/dJ)
	dz = s * ((pos.Z-aI.Z)/dI - (pos.Z-aJ.Z)/dJ)
	return deltaDistTurns(kp.travel, dI, dJ, kp.lambda), dx, dz
}

// VoteFixed returns pair p's fixed-lobe vote at the position dist was
// last filled for; it equals Pair.VoteFixed there bit for bit.
func (k *Kernel) VoteFixed(p int, dist []float64, unwrappedTurns float64, lobe int) float64 {
	return voteFixed(k.DeltaDistTurns(p, dist), unwrappedTurns, lobe)
}

// VoteFree returns pair p's free-lobe vote at the position dist was last
// filled for; it equals Pair.VoteFree there bit for bit.
func (k *Kernel) VoteFree(p int, dist []float64, measuredTurns float64) float64 {
	return voteFree(k.DeltaDistTurns(p, dist), measuredTurns, k.pairs[p].maxK)
}

// deltaDistTurns is Eq. 2's left-hand side F·(dI − dJ)/λ from the pair's
// two distances, in the one operation order every caller shares.
func deltaDistTurns(travel, dI, dJ, lambda float64) float64 {
	dd := dI - dJ
	return travel * dd / lambda
}

// voteFixed is the fixed-lobe vote from a pair's F·Δd/λ.
func voteFixed(turns, unwrappedTurns float64, lobe int) float64 {
	r := turns - unwrappedTurns - float64(lobe)
	return -r * r
}

// voteFree is the free-lobe vote from a pair's F·Δd/λ and its lobe-index
// clamp.
func voteFree(turns, measuredTurns, maxK float64) float64 {
	frac := turns - measuredTurns
	k := math.Round(frac)
	if k > maxK {
		k = maxK
	} else if k < -maxK {
		k = -maxK
	}
	r := frac - k
	return -r * r
}
