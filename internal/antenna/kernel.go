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
// scale is F/λ, the factor of the pair's derivatives, divided once here.
type kernelPair struct {
	i, j   int
	travel float64
	lambda float64
	scale  float64
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
			scale:  pr.Link.TravelFactor() / pr.Carrier.WavelengthM,
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

// Directions writes every distinct antenna's distance derivatives at pos
// along the room's x and z axes (the writing plane's axes), ∂d/∂x =
// (x − aₓ)/d into dir[2a] and ∂d/∂z = (z − a_z)/d into dir[2a+1], from
// the distances dist holds for pos. dir must hold at least 2·Antennas()
// slots. The derivatives are not finite at an element's own position.
func (k *Kernel) Directions(pos geom.Vec3, dist, dir []float64) {
	dir = dir[:2*len(k.ants)]
	for i, a := range k.ants {
		dir[2*i] = (pos.X - a.X) / dist[i]
		dir[2*i+1] = (pos.Z - a.Z) / dist[i]
	}
}

// DeltaDistTurnsGrad returns pair p's F·Δd/λ at the position dist and
// dir were last filled for (by Distances and Directions), with its
// derivatives along x and z: F/λ times the difference of the two
// elements' distance derivatives. turns equals DeltaDistTurns bit for
// bit. The division per element happens once per position in Directions,
// not once for every pair that shares the element.
func (k *Kernel) DeltaDistTurnsGrad(p int, dist, dir []float64) (turns, dx, dz float64) {
	kp := &k.pairs[p]
	dx = kp.scale * (dir[2*kp.i] - dir[2*kp.j])
	dz = kp.scale * (dir[2*kp.i+1] - dir[2*kp.j+1])
	return deltaDistTurns(kp.travel, dist[kp.i], dist[kp.j], kp.lambda), dx, dz
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
// clamp. It picks the nearest lobe with RoundToEven, one instruction on
// amd64, not Round: the two differ only at an exact tie n + ½, where
// either choice leaves |r| = ½, and the clamp maps a choice past ±maxK to
// the same bound, so r² is the same bit for bit. NearestLobe keeps
// Round, because there the tie picks the lobe.
func voteFree(turns, measuredTurns, maxK float64) float64 {
	frac := turns - measuredTurns
	k := math.RoundToEven(frac)
	if k > maxK {
		k = maxK
	} else if k < -maxK {
		k = -maxK
	}
	r := frac - k
	return -r * r
}
