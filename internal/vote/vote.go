// Package vote implements RF-IDraw's multi-resolution positioning (§5.1 of
// the paper) as the two-stage voting algorithm the paper describes:
//
//   - Stage 1: every tightly-spaced (and cross) pair of the coarse reader
//     votes on each point of a coarse grid over the region of interest;
//     points whose total vote is close to the best form the candidate
//     region (the spatial filter of Fig. 6b/6c).
//   - Stage 2: every antenna pair — including the widely-spaced,
//     grating-lobe pairs — votes on points inside the candidate region;
//     the highest-vote points become the candidate positions (Fig. 6d).
//
// A pair's vote on a point is the negated squared distance, in turns,
// between the point's Δd·F/λ and the grating lobe nearest the measured
// phase difference (Eq. 6/7).
//
// # Concurrency
//
// A Positioner is immutable after construction: its pair lists, the
// precomputed stage-1 SteeringTable, and its configuration never change,
// and per-call scratch comes from an internal sync.Pool. Candidates,
// ScoreAt and VoteMap are therefore safe to call concurrently from any
// number of goroutines — the multi-tag engine's shards share one
// Positioner per deployment.
package vote

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rfidraw/internal/antenna"
	"rfidraw/internal/geom"
)

// MaxAntennas bounds the antenna IDs an Observations holds: 0 to
// MaxAntennas−1. It is sized from the deployments: the largest named
// geometry, multiroom, numbers its sixteen antennas 1–16, and the
// positioner and the tracer reject pairs whose IDs do not fit.
const MaxAntennas = 32

// Observations is the cross-reader merged view of one sweep: the
// measured wrapped phase (radians) of every antenna heard, indexed by
// antenna ID, and the mask of the IDs heard. It is a fixed-size value,
// so copying one copies the sweep, and the zero value hears nothing.
type Observations struct {
	phase [MaxAntennas]float64
	heard uint32
}

// ObservationsOf converts an antenna ID → phase map. IDs outside
// [0, MaxAntennas) are dropped: no pair of any deployment reads them.
func ObservationsOf(phases map[int]float64) Observations {
	var o Observations
	for id, ph := range phases {
		o.Set(id, ph)
	}
	return o
}

// Set records antenna id's phase; an ID outside [0, MaxAntennas) is not
// recorded.
func (o *Observations) Set(id int, phase float64) {
	if uint(id) < MaxAntennas {
		o.phase[id] = phase
		o.heard |= 1 << id
	}
}

// Phase returns antenna id's phase, and false when it was not heard.
func (o *Observations) Phase(id int) (float64, bool) {
	if uint(id) >= MaxAntennas || o.heard&(1<<id) == 0 {
		return 0, false
	}
	return o.phase[id], true
}

// Forget marks antenna id unheard.
func (o *Observations) Forget(id int) {
	if uint(id) < MaxAntennas {
		o.phase[id] = 0
		o.heard &^= 1 << id
	}
}

// Len returns how many antennas were heard.
func (o *Observations) Len() int { return bits.OnesCount32(o.heard) }

// All yields every heard antenna's ID and phase, in ID order.
func (o *Observations) All() iter.Seq2[int, float64] {
	return func(yield func(int, float64) bool) {
		for m := o.heard; m != 0; m &= m - 1 {
			id := bits.TrailingZeros32(m)
			if !yield(id, o.phase[id]) {
				return
			}
		}
	}
}

// CheckAntennaIDs rejects pairs naming an antenna ID outside
// [0, MaxAntennas), which no Observations can hold.
func CheckAntennaIDs(pairs []antenna.Pair) error {
	for _, p := range pairs {
		for _, id := range [2]int{p.I.ID, p.J.ID} {
			if uint(id) >= MaxAntennas {
				return fmt.Errorf("vote: antenna ID %d outside 0..%d", id, MaxAntennas-1)
			}
		}
	}
	return nil
}

// PairTurns extracts a pair's phase-difference observable from the
// observations, in turns wrapped to (−0.5, 0.5]. ok is false when either
// port's phase is missing (a lost read).
func PairTurns(p antenna.Pair, obs *Observations) (float64, bool) {
	pi, ok1 := obs.Phase(p.I.ID)
	pj, ok2 := obs.Phase(p.J.ID)
	if !ok1 || !ok2 {
		return 0, false
	}
	return antenna.PhaseDiffTurns(pi, pj), true
}

// Grid is a regular grid of points over a writing-plane rectangle.
type Grid struct {
	Region geom.Rect
	Res    float64
	NX, NZ int
}

// NewGrid builds a grid covering region at the given resolution (metres
// between adjacent points).
func NewGrid(region geom.Rect, res float64) (Grid, error) {
	if res <= 0 {
		return Grid{}, fmt.Errorf("vote: grid resolution %v must be positive", res)
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		return Grid{}, fmt.Errorf("vote: degenerate grid region %+v", region)
	}
	nx := int(region.Width()/res) + 1
	nz := int(region.Height()/res) + 1
	return Grid{Region: region, Res: res, NX: nx, NZ: nz}, nil
}

// Len returns the number of grid points.
func (g Grid) Len() int { return g.NX * g.NZ }

// At returns the i-th grid point in row-major (x-fastest) order.
func (g Grid) At(i int) geom.Vec2 {
	ix := i % g.NX
	iz := i / g.NX
	return geom.Vec2{
		X: g.Region.Min.X + float64(ix)*g.Res,
		Z: g.Region.Min.Z + float64(iz)*g.Res,
	}
}

// Points materialises all grid points.
func (g Grid) Points() []geom.Vec2 {
	out := make([]geom.Vec2, g.Len())
	for i := range out {
		out[i] = g.At(i)
	}
	return out
}

// Candidate is one hypothesised source position with its total vote.
type Candidate struct {
	Pos geom.Vec2
	// Score is the total vote Σ V(P) over all pairs that observed the
	// sample; 0 is a perfect, noise-free intersection, more negative is
	// worse (Eq. 6/7).
	Score float64
}

// Config tunes the two-stage voting positioner.
type Config struct {
	// Plane is the writing plane the grid lives in.
	Plane geom.Plane
	// Region bounds the search.
	Region geom.Rect
	// CoarseRes is the stage-1 grid resolution (m). Default 0.04.
	CoarseRes float64
	// FineRes is the stage-2 refinement resolution (m). Default 0.004.
	FineRes float64
	// CoarseDelta is how far (in vote units) below the stage-1 best a
	// point may be and still enter the candidate region. Default 0.05.
	CoarseDelta float64
	// CandidateCount caps how many candidates are returned. Default 3.
	CandidateCount int
	// MinCandidateSep merges candidates closer than this (m).
	// Default 0.15.
	MinCandidateSep float64
	// Search picks the stage-2 strategy: hierarchical coarse-to-fine
	// refinement (the default) or the exhaustive dense reference.
	Search SearchConfig
}

func (c Config) withDefaults() Config {
	if c.CoarseRes <= 0 {
		c.CoarseRes = 0.04
	}
	if c.FineRes <= 0 {
		c.FineRes = 0.004
	}
	if c.CoarseDelta <= 0 {
		c.CoarseDelta = 0.05
	}
	if c.CandidateCount <= 0 {
		c.CandidateCount = 3
	}
	if c.MinCandidateSep <= 0 {
		c.MinCandidateSep = 0.15
	}
	return c
}

// Positioner runs the two-stage voting algorithm for a fixed deployment.
type Positioner struct {
	// stage1Pairs are the unambiguous/coarse-reader pairs used to build
	// the candidate-region filter (Fig. 6b/6c).
	stage1Pairs []antenna.Pair
	// allPairs are every pair (wide + coarse) used for the stage-2 vote.
	allPairs []antenna.Pair
	// kernel evaluates the direct votes of allPairs, indexed by the
	// pairObs collected from them.
	kernel *antenna.Kernel
	cfg    Config

	// coarseGrid and table are built once at construction: the stage-1
	// full-region scan is the positioning hot path, and the steering
	// values it needs depend only on geometry, so they are precomputed
	// and shared read-only across goroutines.
	coarseGrid Grid
	table      *SteeringTable
	// multi holds the multi-resolution steering tables over all pairs
	// (stage-1 rows first) that the hierarchical refinement descends.
	// nil in dense mode.
	multi *MultiResTable
	// scratch pools search scratches (stage-1 score buffer + refinement
	// state) so repeated Candidates calls on the hot path do not allocate.
	scratch sync.Pool
}

// NewPositioner builds a Positioner. stage1Pairs build the coarse filter;
// widePairs provide the resolution; both vote in stage 2.
func NewPositioner(stage1Pairs, widePairs []antenna.Pair, cfg Config) (*Positioner, error) {
	if len(stage1Pairs) == 0 {
		return nil, errors.New("vote: need at least one stage-1 (coarse) pair")
	}
	if len(widePairs) == 0 {
		return nil, errors.New("vote: need at least one widely-spaced pair")
	}
	cfg = cfg.withDefaults()
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("vote: degenerate search region %+v", cfg.Region)
	}
	all := make([]antenna.Pair, 0, len(stage1Pairs)+len(widePairs))
	all = append(all, stage1Pairs...)
	all = append(all, widePairs...)
	if err := CheckAntennaIDs(all); err != nil {
		return nil, err
	}
	grid, err := NewGrid(cfg.Region, cfg.CoarseRes)
	if err != nil {
		return nil, err
	}
	p := &Positioner{
		stage1Pairs: stage1Pairs,
		allPairs:    all,
		kernel:      antenna.NewKernel(all),
		cfg:         cfg,
		coarseGrid:  grid,
		table:       NewSteeringTable(stage1Pairs, grid, cfg.Plane),
	}
	if cfg.Search.Mode == SearchHierarchical {
		p.multi, err = NewMultiResTable(all, cfg.Region, cfg.Plane, cfg.CoarseRes, tableLevels(cfg))
		if err != nil {
			return nil, err
		}
	}
	p.scratch.New = func() any { return NewScratch() }
	return p, nil
}

// maxTableLevels bounds the precomputed table stack: each level quadruples
// the finest level's point count, and below ~1 cm the remaining descent is
// cheaper evaluated directly on the few surviving branches than stored for
// the whole region.
const maxTableLevels = 3

// tableLevels derives how deep the multi-resolution table stack goes: keep
// halving while the next level stays comfortably above the fine
// resolution (the direct subdivision + quadratic interpolation cover the
// rest), bounded by maxTableLevels and, when set, by Search.Levels.
func tableLevels(cfg Config) int {
	levels := 1
	for res := cfg.CoarseRes; res/2 >= 2*cfg.FineRes && levels < maxTableLevels; res /= 2 {
		if cfg.Search.Levels > 0 && levels > cfg.Search.Levels {
			break
		}
		levels++
	}
	return levels
}

// Config returns the effective (defaulted) configuration.
func (p *Positioner) Config() Config { return p.cfg }

// pairObs is an observed pair's phase difference and its index in the
// pair slice it was collected from (the steering-table and kernel row).
type pairObs struct {
	turns float64
	idx   int
}

// collect appends to dst[:0] every observed pair's phase difference, in
// pair order, and returns the extended slice.
func collect(dst []pairObs, pairs []antenna.Pair, obs *Observations) []pairObs {
	dst = dst[:0]
	for i, pr := range pairs {
		if t, ok := PairTurns(pr, obs); ok {
			dst = append(dst, pairObs{turns: t, idx: i})
		}
	}
	return dst
}

// totalVote sums every observed pair's free-lobe vote at a room point,
// taking each antenna's distance once into dist (Kernel.Antennas slots).
func totalVote(k *antenna.Kernel, dist []float64, pos geom.Vec3, po []pairObs) float64 {
	k.Distances(pos, dist)
	var sum float64
	for _, o := range po {
		sum += k.VoteFree(o.idx, dist, o.turns)
	}
	return sum
}

// ScoreAt returns the total stage-2 vote (all pairs) at a position; it is
// the quantity Fig. 10f plots along a trajectory.
func (p *Positioner) ScoreAt(pos geom.Vec2, obs Observations) float64 {
	dist := make([]float64, p.kernel.Antennas())
	return totalVote(p.kernel, dist, p.cfg.Plane.To3D(pos), collect(nil, p.allPairs, &obs))
}

// VoteMap evaluates the total vote of the given pairs over a grid; the
// experiment harness uses it to render the paper's spatial-filter figures.
func VoteMap(pairs []antenna.Pair, obs Observations, grid Grid, plane geom.Plane) []float64 {
	po := collect(nil, pairs, &obs)
	k := antenna.NewKernel(pairs)
	dist := make([]float64, k.Antennas())
	out := make([]float64, grid.Len())
	for i := range out {
		out[i] = totalVote(k, dist, plane.To3D(grid.At(i)), po)
	}
	return out
}

// Candidates runs the two-stage voting algorithm on one observation set
// and returns up to CandidateCount candidate positions, best first.
func (p *Positioner) Candidates(obs Observations) ([]Candidate, error) {
	cands, _, err := p.CandidatesWith(nil, &obs)
	return cands, err
}

// positionerTopK is the default number of coarse cells the hierarchical
// stage-2 refinement descends: one-shot positioning faces the full
// grating-lobe ambiguity, so it keeps more branches than steady-state
// tracking.
const positionerTopK = 4

// CandidatesWith is Candidates with an explicit reusable scratch (nil
// takes one from the internal pool) and a report of how much search work
// the call spent — the quantity the benchmark suite tracks. With a warm
// scratch the only allocation is the returned slice.
func (p *Positioner) CandidatesWith(sc *Scratch, obs *Observations) ([]Candidate, SearchStats, error) {
	stats := SearchStats{Mode: p.cfg.Search.Mode, Stage1Points: p.coarseGrid.Len()}
	if sc == nil {
		sc = p.scratch.Get().(*Scratch)
		defer p.scratch.Put(sc)
	}
	sc.obs1 = collect(sc.obs1, p.stage1Pairs, obs)
	stage1 := sc.obs1
	if len(stage1) < 2 {
		return nil, stats, fmt.Errorf("vote: only %d stage-1 pairs observed, need ≥2", len(stage1))
	}
	sc.obsAll = collect(sc.obsAll, p.allPairs, obs)
	all := sc.obsAll
	if len(all) < 3 {
		return nil, stats, fmt.Errorf("vote: only %d total pairs observed, need ≥3", len(all))
	}

	// Stage 1: coarse filter over the full region, each point scored by
	// the precomputed steering table's row scorer. It sums in
	// observed-pair order, so the scores are identical to the direct
	// per-point evaluation. A point survives when its score is ≥ the
	// final best1 − CoarseDelta, which is never below the running
	// best1 − CoarseDelta, so a point may stop once its score is strictly
	// below the running one: floor is the largest float under it. The
	// value a stopped point stores is ≤ floor, below the final threshold
	// and the running best, so it changes neither the survivors nor best1.
	grid := p.coarseGrid
	score1 := sc.stage1Buf(grid.Len())
	best1, floor := math.Inf(-1), math.Inf(-1)
	for i := range score1 {
		v := p.table.vote(i, stage1, floor)
		score1[i] = v
		if v > best1 {
			best1 = v
			floor = math.Nextafter(best1-p.cfg.CoarseDelta, math.Inf(-1))
		}
	}

	// Stage 2: refine surviving coarse points with all pairs.
	cands := sc.cands[:0]
	if p.cfg.Search.Mode == SearchHierarchical {
		// Cluster the threshold-clearing cells into peak groups, descend
		// every group through the cheap multi-resolution table, then
		// spend direct evaluations only on the top-K groups ranked by
		// their finest-table all-pairs score. Stage-1 scores alone are
		// too flat across the candidate blob to rank peaks, but after
		// two halvings the all-pairs table resolves them — so the
		// expensive distance-based refinement touches K spots no matter
		// how large the candidate region is.
		k := p.cfg.Search.topK(positionerTopK)
		if k < p.cfg.CandidateCount {
			k = p.cfg.CandidateCount
		}
		groups := pickCellGroups(sc, grid, score1, best1-p.cfg.CoarseDelta, maxPeakGroups, 2*p.cfg.CoarseRes)
		fronts, frontCells := sc.fronts[:0], sc.frontCells[:0]
		for gi := range groups {
			g := &groups[gi]
			stats.Cells += g.n
			cells, evals := p.descendTable(g.cells[:g.n], all, sc)
			stats.GridEvals += evals
			// A group holds at least its founding cell and each level
			// keeps a cell's aligned child, so cells is never empty.
			fronts = append(fronts, groupFront{lo: len(frontCells), hi: len(frontCells) + len(cells), best: cells[0].score})
			frontCells = append(frontCells, cells...)
		}
		branch := refineBranch
		if p.multi.Levels() > 1 {
			fronts = topK(fronts, k, func(f groupFront) float64 { return f.best })
		} else {
			// A single-level table's coarse scores cannot rank peak
			// groups (the wide pairs' votes are aliased at that
			// resolution), so refine every group from all its seeds.
			branch = maxCellsPerGroup
		}
		sc.fronts, sc.frontCells = fronts, frontCells
		for _, f := range fronts {
			pos, score, evals := p.directRefine(frontCells[f.lo:f.hi], all, sc, branch)
			stats.GridEvals += evals
			cands = append(cands, Candidate{Pos: pos, Score: score})
		}
	} else {
		for i := range score1 {
			if score1[i] < best1-p.cfg.CoarseDelta {
				continue
			}
			stats.Cells++
			pos, score, evals := p.refine(grid.At(i), all, sc.DistBuf(p.kernel.Antennas()))
			stats.GridEvals += evals
			cands = append(cands, Candidate{Pos: pos, Score: score})
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		return nil, stats, errors.New("vote: empty candidate region")
	}

	// Merge near-duplicates, keep the best-scoring representatives.
	slices.SortStableFunc(cands, func(a, b Candidate) int { return byScoreDesc(a.Score, b.Score) })
	out := make([]Candidate, 0, min(len(cands), p.cfg.CandidateCount))
	for _, c := range cands {
		dup := false
		for _, kept := range out {
			if kept.Pos.Dist(c.Pos) < p.cfg.MinCandidateSep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
			if len(out) == p.cfg.CandidateCount {
				break
			}
		}
	}
	return out, stats, nil
}

// refine hill-climbs the total vote from start down to FineRes using a
// shrinking 3×3 pattern search clipped to the region — the dense-mode
// reference refinement. dist is the kernel's distance buffer. The third
// return is the evaluation count.
func (p *Positioner) refine(start geom.Vec2, po []pairObs, dist []float64) (geom.Vec2, float64, int) {
	pos := start
	best := totalVote(p.kernel, dist, p.cfg.Plane.To3D(pos), po)
	evals := 1
	step := p.cfg.CoarseRes / 2
	for step >= p.cfg.FineRes {
		improved := false
		for dx := -1; dx <= 1; dx++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dz == 0 {
					continue
				}
				cand := p.cfg.Region.Clip(geom.Vec2{X: pos.X + float64(dx)*step, Z: pos.Z + float64(dz)*step})
				evals++
				if s := totalVote(p.kernel, dist, p.cfg.Plane.To3D(cand), po); s > best {
					best, pos = s, cand
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return pos, best, evals
}
