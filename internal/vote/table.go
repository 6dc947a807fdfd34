package vote

import (
	"fmt"
	"math"

	"rfidraw/internal/antenna"
	"rfidraw/internal/geom"
)

// SteeringTable is a precomputed beam-geometry cache: for a fixed writing
// plane and grid, it stores each antenna pair's geometric observable
// F·Δd/λ (the left-hand side of Eq. 2, in turns) at every grid point,
// together with the pair's lobe-index clamp. The values depend only on the
// deployment geometry — not on any measurement — so one table can be built
// per deployment and shared read-only by any number of goroutines.
//
// The table is point-major: one flat slice laid out [grid point][pair],
// so one grid point's values for every pair are one contiguous row.
// Voting a point reduces to one subtraction, one rounding and one
// multiply per observed pair (Eq. 7), replacing the 3-D distance
// evaluations (square roots) a direct vote performs per point per sample.
// Stage 1 walks the coarse grid point by point and the hierarchical
// descent scores only the cells that survive each level; both call the
// one row scorer, vote. It sums the observed pairs in pairObs order with
// the operations, in the same order, of the direct per-point evaluation
// (antenna.Kernel.VoteFree summed by totalVote), so every score it
// completes is bit-identical to the direct vote at that point, and it
// stops a score early only where the caller has said the value cannot
// matter.
type SteeringTable struct {
	grid Grid
	// stride is how many pairs a row holds; pair p's value at grid point i
	// is turns[i*stride+p], points in the grid's x-fastest order.
	stride int
	turns  []float64
	// maxK[p] is pairs[p].MaxLobeIndex() as a float, hoisted out of the
	// inner loop.
	maxK []float64
}

// NewSteeringTable precomputes the steering values of every pair over the
// grid in the given plane, through the shared antenna.Kernel: each grid
// point takes every antenna's distance once. The result is immutable and
// safe for concurrent use.
func NewSteeringTable(pairs []antenna.Pair, grid Grid, plane geom.Plane) *SteeringTable {
	t := &SteeringTable{
		grid:   grid,
		stride: len(pairs),
		turns:  make([]float64, grid.Len()*len(pairs)),
		maxK:   make([]float64, len(pairs)),
	}
	for pi, p := range pairs {
		t.maxK[pi] = float64(p.MaxLobeIndex())
	}
	k := antenna.NewKernel(pairs)
	dist := make([]float64, k.Antennas())
	for i := 0; i < grid.Len(); i++ {
		k.Distances(plane.To3D(grid.At(i)), dist)
		row := t.turns[i*t.stride : (i+1)*t.stride]
		for pi := range row {
			row[pi] = k.DeltaDistTurns(pi, dist)
		}
	}
	return t
}

// Grid returns the grid the table was built over.
func (t *SteeringTable) Grid() Grid { return t.grid }

// Pairs returns how many pairs each of the table's rows holds.
func (t *SteeringTable) Pairs() int { return t.stride }

// vote is the row scorer: the total free-lobe vote (Eq. 7) of the
// observed pairs po at grid point i, summed in po order, stopped as soon
// as it can no longer end above floor. po's indices are rows of the pair
// list the table was built from.
//
// Every term is −r² ≤ 0, and subtracting a non-negative value never
// raises a float, so the partial sums never rise: once one is ≤ floor,
// the full sum is too. So when the full sum is above floor, vote returns
// it exactly; otherwise it returns the first partial sum ≤ floor, which
// lies between the full sum and floor. A caller that discards every
// score ≤ floor therefore decides exactly as it would on full sums. A
// floor of −Inf always yields the full sum, as does a NaN sum. The
// nearest lobe is taken with RoundToEven, as antenna's voteFree does and
// for the same reason: it changes no r².
func (t *SteeringTable) vote(i int, po []pairObs, floor float64) float64 {
	row := t.turns[i*t.stride : (i+1)*t.stride]
	var sum float64
	for _, o := range po {
		frac := row[o.idx] - o.turns
		k := math.RoundToEven(frac)
		if maxK := t.maxK[o.idx]; k > maxK {
			k = maxK
		} else if k < -maxK {
			k = -maxK
		}
		r := frac - k
		sum -= r * r
		if sum <= floor {
			break
		}
	}
	return sum
}

// tableCell is one grid cell of a steering-table level together with its
// accumulated stage-2 vote, used as the hierarchical refinement frontier.
type tableCell struct {
	idx   int
	score float64
}

// MultiResTable stacks steering tables at halving resolutions over one
// region: level 0 is the coarse stage-1 lattice, and each deeper level
// doubles the density with its grid points aligned so that point (ix, iz)
// of level l is point (2ix, 2iz) of level l+1. The hierarchical search
// descends it cell by cell, so subdivided evaluations stay table lookups
// instead of per-point distance computations. Like SteeringTable it is
// immutable and safe for concurrent use.
type MultiResTable struct {
	levels []*SteeringTable
}

// NewMultiResTable precomputes `levels` steering tables for the pairs over
// region, the first at coarseRes and each subsequent one at half the
// resolution of the previous. levels must be ≥ 1.
func NewMultiResTable(pairs []antenna.Pair, region geom.Rect, plane geom.Plane, coarseRes float64, levels int) (*MultiResTable, error) {
	if levels < 1 {
		return nil, fmt.Errorf("vote: multi-res table needs ≥1 level, got %d", levels)
	}
	base, err := NewGrid(region, coarseRes)
	if err != nil {
		return nil, err
	}
	m := &MultiResTable{levels: make([]*SteeringTable, levels)}
	grid := base
	for l := 0; l < levels; l++ {
		if l > 0 {
			// Derive the child grid explicitly instead of via NewGrid so
			// the lattices stay exactly aligned: same origin, half the
			// step, 2n−1 points per axis.
			grid = Grid{
				Region: grid.Region,
				Res:    grid.Res / 2,
				NX:     2*grid.NX - 1,
				NZ:     2*grid.NZ - 1,
			}
		}
		m.levels[l] = NewSteeringTable(pairs, grid, plane)
	}
	return m, nil
}

// Levels returns how many resolution levels the table holds.
func (m *MultiResTable) Levels() int { return len(m.levels) }

// Level returns the steering table at level l (0 is coarsest).
func (m *MultiResTable) Level(l int) *SteeringTable { return m.levels[l] }

// FinestRes returns the deepest level's grid resolution.
func (m *MultiResTable) FinestRes() float64 {
	return m.levels[len(m.levels)-1].grid.Res
}

// window is a rectangle of grid columns x0..x1 and rows z0..z1,
// inclusive.
type window struct{ x0, x1, z0, z1 int }

func (w window) contains(x, z int) bool {
	return w.x0 <= x && x <= w.x1 && w.z0 <= z && z <= w.z1
}

// childWindow is the child-grid rectangle holding the children of the
// cell at index i of level l: the 3×3 neighbourhood of its aligned child
// point (2ix, 2iz), clipped to level l+1's grid. The descent visits a
// window's cells row by row.
func (m *MultiResTable) childWindow(l, i int) window {
	nx := m.levels[l].grid.NX
	child := m.levels[l+1].grid
	cx, cz := 2*(i%nx), 2*(i/nx)
	return window{
		x0: max(cx-1, 0), x1: min(cx+1, child.NX-1),
		z0: max(cz-1, 0), z1: min(cz+1, child.NZ-1),
	}
}
