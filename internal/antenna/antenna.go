// Package antenna implements the antenna-pair geometry and grating-lobe
// mathematics at the heart of RF-IDraw (§3 of the paper), plus the uniform
// linear array and Bartlett angle-of-arrival spectrum the compared baseline
// uses.
//
// Everything is phrased in "turns" — fractions of a wavelength / full phase
// rotations — because Eq. 2 of the paper relates the two directly:
//
//	F·Δd/λ = Δφ/2π + k,  k ∈ Z
//
// where F is the link travel factor (2 for backscatter), Δd the difference
// of the tag's distances to the pair's two antennas, and Δφ the measured
// phase difference. Each integer k corresponds to one grating lobe.
package antenna

import (
	"fmt"
	"math"

	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
)

// Antenna is one reader port's radiating element.
type Antenna struct {
	// ID is a stable identifier; the paper numbers its antennas 1–8.
	ID int
	// ReaderID identifies which reader the antenna is connected to.
	// Phase comparisons are only meaningful within one reader.
	ReaderID int
	// Pos is the element position in room coordinates (wall plane y=0).
	Pos geom.Vec3
}

// Pair is an ordered antenna pair <I, J>. Its measured observable is the
// phase difference Δφ(J,I) = φJ − φI.
type Pair struct {
	I, J    Antenna
	Carrier phys.Carrier
	Link    phys.Link
}

// NewPair builds a pair after checking that both antennas belong to the
// same reader (phases across readers have an uncalibrated offset, §3.5).
func NewPair(i, j Antenna, carrier phys.Carrier, link phys.Link) (Pair, error) {
	if i.ReaderID != j.ReaderID {
		return Pair{}, fmt.Errorf("antenna: pair <%d,%d> spans readers %d and %d", i.ID, j.ID, i.ReaderID, j.ReaderID)
	}
	if i.Pos == j.Pos {
		return Pair{}, fmt.Errorf("antenna: pair <%d,%d> has coincident elements", i.ID, j.ID)
	}
	return Pair{I: i, J: j, Carrier: carrier, Link: link}, nil
}

// Separation returns the element spacing D in metres.
func (p Pair) Separation() float64 { return p.I.Pos.Dist(p.J.Pos) }

// SeparationWavelengths returns D/λ.
func (p Pair) SeparationWavelengths() float64 { return p.Separation() / p.Carrier.WavelengthM }

// EffectiveTurnsSpan returns F·D/λ — the maximum |Δd|·F/λ any source
// position can produce, and therefore (up to rounding) the number of
// grating lobes on each side of broadside.
func (p Pair) EffectiveTurnsSpan() float64 {
	return p.Link.TravelFactor() * p.Separation() / p.Carrier.WavelengthM
}

// MaxLobeIndex returns the largest |k| any real source position can make
// Eq. 2 hold for. Coarse pairs are built so this is 0 (a single beam).
func (p Pair) MaxLobeIndex() int {
	return int(math.Floor(p.EffectiveTurnsSpan() + 1e-9))
}

// LobeCount returns the number of distinct grating lobes, 2·MaxLobeIndex+1.
// It grows linearly with separation, as §3.2 derives.
func (p Pair) LobeCount() int { return 2*p.MaxLobeIndex() + 1 }

// DeltaDistTurns returns F·Δd/λ for a source at pos: the left-hand side of
// Eq. 2 in turns, using exact 3-D distances (the hyperbola form the paper
// recommends at close range, not the far-field cos θ approximation).
func (p Pair) DeltaDistTurns(pos geom.Vec3) float64 {
	return deltaDistTurns(p.Link.TravelFactor(), pos.Dist(p.I.Pos), pos.Dist(p.J.Pos), p.Carrier.WavelengthM)
}

// PhaseDiffTurns converts two measured wrapped phases into the observable
// Δφ(J,I)/2π, wrapped to (−0.5, 0.5].
func PhaseDiffTurns(phiI, phiJ float64) float64 {
	return phys.WrapSigned(phiJ-phiI) / phys.TwoPi
}

// IdealPhaseDiffTurns returns the noiseless phase-difference observable for
// a source at pos, i.e. DeltaDistTurns reduced to (−0.5, 0.5]. Useful for
// constructing synthetic measurements in tests and plots.
func (p Pair) IdealPhaseDiffTurns(pos geom.Vec3) float64 {
	return wrapHalf(p.DeltaDistTurns(pos))
}

// wrapHalf wraps x to (−0.5, 0.5].
func wrapHalf(x float64) float64 {
	w := math.Mod(x, 1)
	switch {
	case w <= -0.5:
		w += 1
	case w > 0.5:
		w -= 1
	}
	return w
}

// NearestLobe returns the lobe index k* minimising |F·Δd(pos)/λ − turns − k|
// subject to |k| ≤ MaxLobeIndex. This is the lobe-locking step of the
// tracing algorithm (§5.2).
func (p Pair) NearestLobe(pos geom.Vec3, measuredTurns float64) int {
	frac := p.DeltaDistTurns(pos) - measuredTurns
	k := int(math.Round(frac))
	if max := p.MaxLobeIndex(); k > max {
		k = max
	} else if max := p.MaxLobeIndex(); k < -max {
		k = -max
	}
	return k
}

// VoteFree is the widely-spaced-pair vote of Eq. 7: the negated squared
// distance (in turns) from pos to the *closest* grating lobe consistent
// with the measured phase difference.
func (p Pair) VoteFree(pos geom.Vec3, measuredTurns float64) float64 {
	return voteFree(p.DeltaDistTurns(pos), measuredTurns, float64(p.MaxLobeIndex()))
}

// VoteFixed is the tracing-time vote with the lobe index pinned (Eq. 7 with
// fixed k and unwrapped phase): the negated squared residual against lobe k
// given the *unwrapped* phase-difference track in turns.
func (p Pair) VoteFixed(pos geom.Vec3, unwrappedTurns float64, k int) float64 {
	return FixedLobeVote(p.DeltaDistTurns(pos), unwrappedTurns, k)
}

// Array is a uniform linear array of antennas, used by the baseline AoA
// scheme ([12] in the paper): elements along a line with constant spacing.
type Array struct {
	Elements []Antenna
	Carrier  phys.Carrier
	Link     phys.Link
}

// NewULA builds an n-element uniform linear array starting at origin and
// stepping by step (whose norm is the element spacing). All elements share
// the reader ID.
func NewULA(readerID, firstID, n int, origin, step geom.Vec3, carrier phys.Carrier, link phys.Link) (Array, error) {
	if n < 2 {
		return Array{}, fmt.Errorf("antenna: array needs ≥2 elements, got %d", n)
	}
	if step.Norm() == 0 {
		return Array{}, fmt.Errorf("antenna: array step must be non-zero")
	}
	els := make([]Antenna, n)
	for i := range els {
		els[i] = Antenna{ID: firstID + i, ReaderID: readerID, Pos: origin.Add(step.Scale(float64(i)))}
	}
	return Array{Elements: els, Carrier: carrier, Link: link}, nil
}

// Center returns the array's phase centre.
func (a Array) Center() geom.Vec3 {
	var c geom.Vec3
	for _, e := range a.Elements {
		c = c.Add(e.Pos)
	}
	return c.Scale(1 / float64(len(a.Elements)))
}

// Axis returns the unit vector along the array's line.
func (a Array) Axis() geom.Vec3 {
	d := a.Elements[len(a.Elements)-1].Pos.Sub(a.Elements[0].Pos)
	return d.Scale(1 / d.Norm())
}

// SteeringTurns returns, for each element, the expected phase (in turns,
// relative to element 0) of a far-field source at angle theta from the
// array axis. For a source along angle θ, the path to element n is shorter
// by x_n·cos θ, so its received phase is larger by +F·x_n·cos θ/λ turns,
// where x_n is the element's position along the axis.
func (a Array) SteeringTurns(theta float64) []float64 {
	axis := a.Axis()
	base := a.Elements[0].Pos
	f := a.Link.TravelFactor() / a.Carrier.WavelengthM
	out := make([]float64, len(a.Elements))
	ct := math.Cos(theta)
	for i, e := range a.Elements {
		x := e.Pos.Sub(base).Dot(axis)
		out[i] = f * x * ct
	}
	return out
}

// BartlettSpectrum evaluates the classical (Bartlett) beamformer power at
// each candidate angle, from the measured per-element wrapped phases. Only
// phase information is used (unit amplitudes), which matches what a
// commercial reader reports.
func (a Array) BartlettSpectrum(phases []float64, thetas []float64) ([]float64, error) {
	if len(phases) != len(a.Elements) {
		return nil, fmt.Errorf("antenna: got %d phases for %d elements", len(phases), len(a.Elements))
	}
	out := make([]float64, len(thetas))
	for ti, th := range thetas {
		steer := a.SteeringTurns(th)
		var re, im float64
		for n := range phases {
			// Correlate measurement with the steering phase.
			ang := phases[n] - phases[0] - phys.TwoPi*(steer[n]-steer[0])
			re += math.Cos(ang)
			im += math.Sin(ang)
		}
		out[ti] = (re*re + im*im) / float64(len(phases)*len(phases))
	}
	return out, nil
}

// PeakAoA scans nTheta angles in (0, π) and returns the angle with the
// highest Bartlett power.
func (a Array) PeakAoA(phases []float64, nTheta int) (float64, error) {
	if nTheta < 2 {
		return 0, fmt.Errorf("antenna: need ≥2 scan angles, got %d", nTheta)
	}
	thetas := make([]float64, nTheta)
	for i := range thetas {
		thetas[i] = math.Pi * (float64(i) + 0.5) / float64(nTheta)
	}
	spec, err := a.BartlettSpectrum(phases, thetas)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, v := range spec {
		if v > spec[best] {
			best = i
		}
	}
	return thetas[best], nil
}

// DirectionRay converts an AoA estimate into a ray in the writing plane:
// starting at the array centre, at angle theta from the array axis
// (measured in the wall/writing plane).
func (a Array) DirectionRay(theta float64, plane geom.Plane) geom.Ray {
	c := a.Center()
	axis := a.Axis()
	// Build the in-plane normal to the axis (rotate the axis projection
	// by 90° in the (x, z) writing-plane coordinates).
	ax2 := geom.Vec2{X: axis.X, Z: axis.Z}
	n2 := geom.Vec2{X: -ax2.Z, Z: ax2.X}
	dir := ax2.Scale(math.Cos(theta)).Add(n2.Scale(math.Sin(theta)))
	return geom.Ray{Origin: plane.To2D(c), Dir: dir}
}

// BeamPattern evaluates a pair's normalised beam gain over a grid of
// writing-plane points for a given measured phase difference: exp(vote/2σ²)
// with σ in turns. It is used to regenerate the paper's Figs. 2–4.
func (p Pair) BeamPattern(points []geom.Vec2, plane geom.Plane, measuredTurns, sigmaTurns float64) []float64 {
	out := make([]float64, len(points))
	inv := 1 / (2 * sigmaTurns * sigmaTurns)
	for i, pt := range points {
		v := p.VoteFree(plane.To3D(pt), measuredTurns)
		out[i] = math.Exp(v * inv)
	}
	return out
}
