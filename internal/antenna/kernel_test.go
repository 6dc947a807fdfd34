package antenna_test

import (
	"math"
	"testing"
	"testing/quick"

	"rfidraw/internal/antenna"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
)

// TestKernelDedupsAntennas: each distinct element gets one distance slot,
// however many pairs share it.
func TestKernelDedupsAntennas(t *testing.T) {
	for _, name := range deploy.GeometryNames() {
		g, err := deploy.GeometryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		if k := antenna.NewKernel(d.AllPairs()); k.Antennas() != len(d.Antennas) {
			t.Fatalf("%s: kernel has %d distance slots for %d antennas", name, k.Antennas(), len(d.Antennas))
		}
	}
}

// coord maps u into [lo, hi], except that edge 0 and 1 snap to the
// bounds, so region borders and corners come up often in quick checks.
func coord(u uint32, edge uint8, lo, hi float64) float64 {
	switch edge % 4 {
	case 0:
		return lo
	case 1:
		return hi
	}
	return lo + (hi-lo)*float64(u)/math.MaxUint32
}

// TestQuickKernelMatchesPair is the kernel's bit-identity property: for
// every named geometry, at random writing-plane positions that include
// the region border and corners, each pair's kernel values are == to the
// Pair reference methods — not merely close — so searches that mix
// steering-table and direct scores compare equal values. The gradient is
// held to the per-pair formula the kernel replaced, F/λ·((x − I.x)/d_I −
// (x − J.x)/d_J) and its z counterpart, bit for bit, though Directions
// now divides once per antenna.
func TestQuickKernelMatchesPair(t *testing.T) {
	for _, name := range deploy.GeometryNames() {
		g, err := deploy.GeometryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		pairs := d.AllPairs()
		k := antenna.NewKernel(pairs)
		dist := make([]float64, k.Antennas())
		dir := make([]float64, 2*k.Antennas())
		region := g.Region()
		f := func(ux, uz, uy uint32, ex, ez uint8, turns float64, lobe int8) bool {
			pos := geom.Vec2{
				X: coord(ux, ex, region.Min.X, region.Max.X),
				Z: coord(uz, ez, region.Min.Z, region.Max.Z),
			}
			p3 := geom.Plane{Y: 0.3 + 4*float64(uy)/math.MaxUint32}.To3D(pos)
			turns = math.Mod(turns, 1)
			k.Distances(p3, dist)
			k.Directions(p3, dist, dir)
			for p, pr := range pairs {
				turns0, dx, dz := k.DeltaDistTurnsGrad(p, dist, dir)
				dI, dJ := p3.Dist(pr.I.Pos), p3.Dist(pr.J.Pos)
				s := pr.Link.TravelFactor() / pr.Carrier.WavelengthM
				wantX := s * ((p3.X-pr.I.Pos.X)/dI - (p3.X-pr.J.Pos.X)/dJ)
				wantZ := s * ((p3.Z-pr.I.Pos.Z)/dI - (p3.Z-pr.J.Pos.Z)/dJ)
				if k.DeltaDistTurns(p, dist) != pr.DeltaDistTurns(p3) ||
					turns0 != pr.DeltaDistTurns(p3) || dx != wantX || dz != wantZ ||
					k.VoteFixed(p, dist, turns, int(lobe)) != pr.VoteFixed(p3, turns, int(lobe)) ||
					k.VoteFree(p, dist, turns) != pr.VoteFree(p3, turns) {
					t.Logf("%s: pair %d differs at %v", name, p, p3)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestQuickKernelGradMatchesFiniteDifference checks the analytic
// gradient the tracing step's Gauss–Newton solve linearises with: for
// every named geometry, at random writing-plane positions that include
// the region border and corners, each pair's ∂(F·Δd/λ)/∂x and ∂/∂z agree
// with central finite differences of DeltaDistTurns, and the value it
// returns alongside is DeltaDistTurns bit for bit.
func TestQuickKernelGradMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6 // m
	for _, name := range deploy.GeometryNames() {
		g, err := deploy.GeometryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		pairs := d.AllPairs()
		k := antenna.NewKernel(pairs)
		dist := make([]float64, k.Antennas())
		dir := make([]float64, 2*k.Antennas())
		region := g.Region()
		turnsAt := func(p int, pos geom.Vec3) float64 {
			k.Distances(pos, dist)
			return k.DeltaDistTurns(p, dist)
		}
		f := func(ux, uz, uy uint32, ex, ez uint8) bool {
			pos := geom.Vec2{
				X: coord(ux, ex, region.Min.X, region.Max.X),
				Z: coord(uz, ez, region.Min.Z, region.Max.Z),
			}
			p3 := geom.Plane{Y: 0.3 + 4*float64(uy)/math.MaxUint32}.To3D(pos)
			for p := range pairs {
				want := turnsAt(p, p3)
				wantX := (turnsAt(p, p3.Add(geom.Vec3{X: h})) - turnsAt(p, p3.Sub(geom.Vec3{X: h}))) / (2 * h)
				wantZ := (turnsAt(p, p3.Add(geom.Vec3{Z: h})) - turnsAt(p, p3.Sub(geom.Vec3{Z: h}))) / (2 * h)
				k.Distances(p3, dist)
				k.Directions(p3, dist, dir)
				turns, dx, dz := k.DeltaDistTurnsGrad(p, dist, dir)
				if turns != want ||
					math.Abs(dx-wantX) > 1e-6*math.Max(1, math.Abs(wantX)) ||
					math.Abs(dz-wantZ) > 1e-6*math.Max(1, math.Abs(wantZ)) {
					t.Logf("%s: pair %d at %v: (%v, %v, %v), want (%v, %v, %v)", name, p, p3, turns, dx, dz, want, wantX, wantZ)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
