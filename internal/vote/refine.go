package vote

import (
	"cmp"
	"math"
	"slices"

	"rfidraw/internal/geom"
)

// SearchMode selects how the stage-2 vote surface is searched.
type SearchMode int

const (
	// SearchHierarchical is the default coarse-to-fine refinement: vote
	// on the coarse lattice, keep the top-K cells whose vote mass clears
	// the stage-1 threshold, recursively subdivide only those cells down
	// to the fine resolution, and finish with a local quadratic
	// interpolation to sub-cell precision. Cost scales with the ambiguity
	// left after stage-1 voting, not with grid area. In tracing it
	// selects the Gauss–Newton step.
	SearchHierarchical SearchMode = iota
	// SearchDense is the exhaustive strategy the system shipped with:
	// refine every coarse point that clears the stage-1 threshold with a
	// shrinking pattern search (and, in tracing, scan the whole vicinity
	// lattice every sample). Kept as the reference for equivalence tests
	// and regression triage.
	SearchDense
)

// String implements fmt.Stringer.
func (m SearchMode) String() string {
	switch m {
	case SearchHierarchical:
		return "hierarchical"
	case SearchDense:
		return "dense"
	default:
		return "unknown"
	}
}

// SearchConfig picks the search strategy and tunes the positioner's
// hierarchical coarse-to-fine search. The zero value means: hierarchical
// mode, default top-K, subdivide until the fine resolution is reached.
// Tracing reads only Mode: its hierarchical step is a Gauss–Newton solve
// (tracing.Tracer), which has no branches or levels.
type SearchConfig struct {
	// Mode picks the strategy; the zero value is SearchHierarchical.
	Mode SearchMode
	// TopK is how many coarse cells survive each of the positioner's
	// selection steps. Default 4.
	TopK int
	// Levels caps how many of the positioner's subdivision levels run;
	// 0 subdivides until the fine resolution is reached.
	Levels int
}

func (c SearchConfig) topK(def int) int {
	if c.TopK > 0 {
		return c.TopK
	}
	return def
}

// maxLevels converts the Levels knob into subdivide's level cap, with
// already-consumed levels (e.g. table-descent levels) subtracted. -1 means
// unbounded (subdivide until the fine resolution).
func (c SearchConfig) maxLevels(consumed int) int {
	if c.Levels <= 0 {
		return -1
	}
	rem := c.Levels - consumed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// scoredPoint is one evaluated search point.
type scoredPoint struct {
	pos   geom.Vec2
	score float64
}

// Scratch is the reusable per-goroutine search state: the stage-1 score
// buffer, the evaluation memo, the candidate pools, the acquisition
// kernel's survivor, group and frontier buffers and the vote kernel's
// distance buffer. It exists so the hot path allocates nothing once
// warm — the engine keeps one per worker shard (from a sync.Pool),
// streams keep one per live trace. A Scratch is NOT safe for concurrent
// use; results never depend on its prior content.
type Scratch struct {
	// stage1 is the positioner's coarse-lattice score buffer.
	stage1 []float64
	// obs1 and obsAll hold the observed stage-1 and all-pair phase
	// differences of one positioning call.
	obs1, obsAll []pairObs
	// cache memoises eval results by exact position bits within one
	// search; reset at every search start.
	cache map[[2]uint64]float64
	// pool accumulates every evaluated point of one search; top-K
	// selection always reads this slice (never the map) so results are
	// deterministic.
	pool []scoredPoint
	// survivors and groups are pickCellGroups' threshold-clearing cells
	// and peak groups.
	survivors []tableCell
	groups    []cellGroup
	// cells and cellsNext are the table-descent frontiers.
	cells, cellsNext []tableCell
	// frontCells holds every group's finest-table frontier back to back,
	// fronts indexes it per group, and cands collects the refined
	// candidates before the near-duplicate merge.
	frontCells []tableCell
	fronts     []groupFront
	cands      []Candidate
	// dist is the antenna.Kernel distance buffer handed out by DistBuf.
	dist []float64
}

// NewScratch builds an empty search scratch.
func NewScratch() *Scratch {
	return &Scratch{cache: make(map[[2]uint64]float64)}
}

// stage1Buf returns the stage-1 score buffer sized to n points.
func (s *Scratch) stage1Buf(n int) []float64 {
	if cap(s.stage1) < n {
		s.stage1 = make([]float64, n)
	}
	return s.stage1[:n]
}

// DistBuf returns the scratch's antenna-distance buffer with n slots (an
// antenna.Kernel's Antennas()), for evaluating direct votes without a
// per-evaluation allocation. Its content is whatever the last user left.
func (s *Scratch) DistBuf(n int) []float64 {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
	return s.dist[:n]
}

// resetSearch clears the per-search state.
func (s *Scratch) resetSearch() {
	if s.cache == nil {
		s.cache = make(map[[2]uint64]float64)
	}
	clear(s.cache)
	s.pool = s.pool[:0]
}

// searcher runs one hierarchical search over an objective function.
type searcher struct {
	sc     *Scratch
	region geom.Rect
	// quant is the memo's position quantum. Every search point lies on a
	// dyadic lattice around the seed, but the same lattice point reached
	// through different float arithmetic differs by ulps; keying on
	// round(coord/quant) with quant at a quarter of the finest step
	// (well below the minimum lattice spacing) dedups those exactly.
	quant float64
	eval  func(geom.Vec2) float64
	evals int
}

func (s *searcher) key(p geom.Vec2) [2]uint64 {
	return [2]uint64{
		uint64(int64(math.Round(p.X / s.quant))),
		uint64(int64(math.Round(p.Z / s.quant))),
	}
}

// visit clips p into the region, evaluates it once (memoised) and adds it
// to the candidate pool.
func (s *searcher) visit(p geom.Vec2) {
	p = s.region.Clip(p)
	k := s.key(p)
	if _, ok := s.sc.cache[k]; ok {
		return
	}
	v := s.eval(p)
	s.evals++
	s.sc.cache[k] = v
	s.sc.pool = append(s.sc.pool, scoredPoint{pos: p, score: v})
}

// score returns the memoised score of an already-visited point, or
// evaluates and records it.
func (s *searcher) score(p geom.Vec2) float64 {
	p = s.region.Clip(p)
	k := s.key(p)
	if v, ok := s.sc.cache[k]; ok {
		return v
	}
	v := s.eval(p)
	s.evals++
	s.sc.cache[k] = v
	s.sc.pool = append(s.sc.pool, scoredPoint{pos: p, score: v})
	return v
}

// topK reorders s so that its first k entries are its k best by score,
// best first, exactly as a stable sort by descending score followed by
// truncation to k would leave them (exact ties keep input order), and
// returns that prefix; k beyond len(s) keeps every entry. It is an
// in-place insertion selection: the prefix s[:k] stays sorted and a later
// entry enters it only by strictly beating its last entry, so selecting
// the few best of a level costs about one comparison per entry instead
// of a full sort.
func topK[T any](s []T, k int, score func(T) float64) []T {
	if k > len(s) {
		k = len(s)
	}
	if k <= 0 {
		return s[:0]
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		v := score(e)
		j := i
		if i >= k {
			if !(v > score(s[k-1])) {
				continue
			}
			j = k - 1 // e displaces the current k-th entry
		}
		for ; j > 0 && v > score(s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
	return s[:k]
}

func (s *searcher) best() scoredPoint {
	b := s.sc.pool[0]
	for _, c := range s.sc.pool[1:] {
		if c.score > b.score {
			b = c
		}
	}
	return b
}

// subdivide runs the coarse-to-fine refinement levels: each level halves
// the step, evaluates the 3×3 neighbourhood of every surviving branch and
// reselects the top-K from everything seen so far. maxLevels < 0 means
// subdivide until fineStep is reached. Returns the last step actually used
// (the quadratic-interpolation scale).
func (s *searcher) subdivide(k int, coarseStep, fineStep float64, maxLevels int) float64 {
	step := coarseStep / 2
	last := coarseStep
	for level := 0; step >= fineStep-1e-12 && (maxLevels < 0 || level < maxLevels); level++ {
		// Exact ties keep visit order, so results stay deterministic.
		s.sc.pool = topK(s.sc.pool, k, func(p scoredPoint) float64 { return p.score })
		// The pool grows as neighbours are visited; remember how many
		// seeds this level expands so new points seed the next level.
		seeds := len(s.sc.pool)
		for i := 0; i < seeds; i++ {
			c := s.sc.pool[i].pos
			for dx := -1; dx <= 1; dx++ {
				for dz := -1; dz <= 1; dz++ {
					if dx == 0 && dz == 0 {
						continue
					}
					s.visit(geom.Vec2{X: c.X + float64(dx)*step, Z: c.Z + float64(dz)*step})
				}
			}
		}
		last = step
		step /= 2
	}
	return last
}

// quadratic refines the best point to sub-cell precision: it fits a 1-D
// parabola per axis through the three samples at ±h and moves to the
// vertex when the surface is locally concave. The interpolated point is
// evaluated, so the refinement never returns a worse position.
func (s *searcher) quadratic(h float64) {
	b := s.best()
	off := geom.Vec2{}
	for axis := 0; axis < 2; axis++ {
		var lo, hi geom.Vec2
		if axis == 0 {
			lo, hi = geom.Vec2{X: b.pos.X - h, Z: b.pos.Z}, geom.Vec2{X: b.pos.X + h, Z: b.pos.Z}
		} else {
			lo, hi = geom.Vec2{X: b.pos.X, Z: b.pos.Z - h}, geom.Vec2{X: b.pos.X, Z: b.pos.Z + h}
		}
		// Clipping breaks the symmetric stencil; skip the axis at the
		// region border rather than fit a lopsided parabola.
		if s.region.Clip(lo) != lo || s.region.Clip(hi) != hi {
			continue
		}
		fm, fp := s.score(lo), s.score(hi)
		denom := fm - 2*b.score + fp
		if denom >= -1e-18 {
			continue // flat or convex: no interior vertex
		}
		d := h * (fm - fp) / (2 * denom)
		if d > h {
			d = h
		} else if d < -h {
			d = -h
		}
		if axis == 0 {
			off.X = d
		} else {
			off.Z = d
		}
	}
	if off != (geom.Vec2{}) {
		s.visit(b.pos.Add(off))
	}
}

// SearchStats summarises one hierarchical positioning call.
type SearchStats struct {
	// Mode is the strategy that ran.
	Mode SearchMode
	// Stage1Points is the coarse-lattice size voted by stage 1.
	Stage1Points int
	// Cells is how many coarse cells cleared the threshold and were
	// refined (in dense mode: every surviving point).
	Cells int
	// GridEvals counts stage-2 vote evaluations — table-lattice lookups
	// and direct evaluations alike; stage-1 lattice votes are reported
	// separately in Stage1Points since they run once per sample in both
	// modes.
	GridEvals int
}

// refineBranch is the branch width kept per subdivision level inside one
// peak group. The wide-pair vote surface is a field of narrow ridges, so
// at coarse sampling a wrong-lobe ridge can transiently outrank the cell
// holding the true peak; four branches absorb that reordering while still
// discarding the bulk of each level's children.
const refineBranch = 4

// descendTable runs one peak group's coarse-to-fine descent through the
// multi-resolution steering table: the group's cells are scored with all
// observed pairs at level 0, then each level scores the 3×3 children of
// the surviving branches at double resolution and keeps the best
// refineBranch. Every score is one row-scorer call on a table row — no
// distance computation.
//
// Each level offers its cells, in the order a full scoring pass would
// visit them, to a running selection (keepTop) that ends as topK would
// leave the whole level: the order a stable sort gives. A cell's score
// is floored at the selection's current k-th score, because a cell at or
// below it can never enter; the row scorer stops such a cell early and
// returns a value that keepTop rejects just as it would the full score.
// A child already in an earlier branch's 3×3 window is a duplicate and
// is skipped, as that branch scored it. A branch's aligned child
// (2ix, 2iz) is the branch's own grid point, whose table row is the
// branch's row bit for bit, so it takes the branch's score instead of
// being scored again: a kept branch's score is its full sum, which the
// row scorer would return above the floor and keepTop rejects at or
// below it, like any stopped value. Returns the finest-level frontier,
// best first, which lives in the scratch until the next descent, and
// the number of cells visited, stopped and inherited ones included.
func (p *Positioner) descendTable(cells []int, po []pairObs, sc *Scratch) ([]tableCell, int) {
	// At the coarse level the wide pairs' votes are aliased (their lobes
	// are narrower than the cell), so level-0 scores cannot select
	// branches; with deeper levels ahead the first descent re-scores
	// children anyway, but a single-level table must keep every seed.
	keep := len(cells)
	if p.multi.Levels() > 1 {
		keep = refineBranch
	}
	t0 := p.multi.Level(0)
	top := sc.cells[:0]
	for _, c := range cells {
		top = keepTop(top, keep, tableCell{idx: c, score: t0.vote(c, po, floorOf(top, keep))})
	}
	evals := len(cells)
	for l := 1; l < p.multi.Levels(); l++ {
		t := p.multi.Level(l)
		nx := t.grid.NX
		next := sc.cellsNext[:0]
		// With deeper levels, level 0 kept refineBranch cells and so does
		// every level after it.
		var wins [refineBranch]window
		pnx := p.multi.Level(l - 1).grid.NX
		for bi, c := range top {
			w := p.multi.childWindow(l-1, c.idx)
			wins[bi] = w
			ax, az := 2*(c.idx%pnx), 2*(c.idx/pnx)
			for z := w.z0; z <= w.z1; z++ {
				for x := w.x0; x <= w.x1; x++ {
					if inWindows(wins[:bi], x, z) {
						continue
					}
					evals++
					i := z*nx + x
					score := c.score
					if x != ax || z != az {
						score = t.vote(i, po, floorOf(next, refineBranch))
					}
					next = keepTop(next, refineBranch, tableCell{idx: i, score: score})
				}
			}
		}
		top, sc.cellsNext = next, top
	}
	sc.cells = top
	return top, evals
}

// keepTop offers c to top, a best-first running selection of at most k
// cells, by topK's rule: while top has room c is inserted after every
// entry at least as good; once it is full, c enters only by strictly
// beating the last entry, which it displaces. Offering a level's cells
// one by one therefore leaves top exactly as topK leaves the slice of
// them all. It is written for tableCell rather than shared with the
// generic topK: through topK's score function the descent ran about 10%
// slower (BenchmarkLocalizeSingleSample, alternated binaries).
func keepTop(top []tableCell, k int, c tableCell) []tableCell {
	j := len(top)
	switch {
	case j < k:
		top = append(top, c)
	case c.score > top[k-1].score:
		j = k - 1
	default:
		return top
	}
	for ; j > 0 && c.score > top[j-1].score; j-- {
		top[j] = top[j-1]
	}
	top[j] = c
	return top
}

// floorOf is the score at or below which keepTop rejects a cell: the
// k-th score once top is full, −Inf before.
func floorOf(top []tableCell, k int) float64 {
	if len(top) < k {
		return math.Inf(-1)
	}
	return top[k-1].score
}

// inWindows reports whether grid point (x, z) lies in any of wins.
func inWindows(wins []window, x, z int) bool {
	for _, w := range wins {
		if w.contains(x, z) {
			return true
		}
	}
	return false
}

// directRefine continues one group's refinement below the table's finest
// resolution: top-K subdivision with direct vote evaluation down to
// FineRes, then the quadratic interpolation to sub-cell precision. branch
// is the per-level branch width (refineBranch normally; every seed for
// single-level tables, whose coarse scores cannot rank branches).
func (p *Positioner) directRefine(frontier []tableCell, po []pairObs, sc *Scratch, branch int) (geom.Vec2, float64, int) {
	sc.resetSearch()
	dist := sc.DistBuf(p.kernel.Antennas())
	s := &searcher{sc: sc, region: p.cfg.Region, quant: p.cfg.FineRes / 4, eval: func(pos geom.Vec2) float64 {
		return totalVote(p.kernel, dist, p.cfg.Plane.To3D(pos), po)
	}}
	// The table and the direct votes both come from antenna.Kernel, so
	// table scores are bit-identical to direct ones and seed the pool
	// as-is.
	finest := p.multi.Level(p.multi.Levels() - 1)
	for _, c := range frontier {
		pos := finest.Grid().At(c.idx)
		sc.pool = append(sc.pool, scoredPoint{pos: pos, score: c.score})
		sc.cache[s.key(pos)] = c.score
	}
	h := s.subdivide(branch, finest.Grid().Res, p.cfg.FineRes, p.cfg.Search.maxLevels(p.multi.Levels()-1))
	s.quadratic(h)
	b := s.best()
	return b.pos, b.score, s.evals
}

// byScoreDesc is the best-first comparison behind every stable ordering of
// scored search state: a sorts before b only when strictly better, so a
// stable sort keeps equal (and unordered) scores in input order.
func byScoreDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case b > a:
		return 1
	}
	return 0
}

// groupFront is one peak group's finest-table frontier: the cells
// Scratch.frontCells[lo:hi], best first, whose first score is best.
type groupFront struct {
	lo, hi int
	best   float64
}

// maxPeakGroups caps how many peak groups the survivor partition forms.
// It is a selection step, not a backstop: survivors found groups best
// first, so the cap keeps the groups of the 64 best founding cells and
// never refines the rest. On the retrace benchmark's sessions (seeds 77
// and 1001, 279 acquisitions) the survivors would form 77–125 groups
// without it, median 94, so it binds on every call; the group that
// refined best was founded at index 8 in the median call and at 27–28
// at p90. Changing it changes candidates.
const maxPeakGroups = 64

// maxCellsPerGroup bounds how many survivor cells seed one group's
// refinement; stage-1 beams are a few cells wide, so a dozen seeds cover a
// peak's plateau while keeping per-group cost bounded.
const maxCellsPerGroup = 12

// cellGroup is one peak group of stage-1 survivors: the position of its
// representative (its founding, best cell) and its first n members,
// best first.
type cellGroup struct {
	rep   geom.Vec2
	n     int
	cells [maxCellsPerGroup]int
}

// pickCellGroups clusters the threshold-clearing stage-1 cells into up to
// k peak groups: survivors are visited best-first, joining the first group
// whose representative lies within suppress, otherwise founding a new
// group. Grouping — rather than discarding — nearby survivors keeps every
// cell of a peak's plateau reachable by the refinement while still
// spreading the k groups over distinct peaks. The groups live in the
// scratch until the next call.
func pickCellGroups(sc *Scratch, grid Grid, score []float64, threshold float64, k int, suppress float64) []cellGroup {
	survivors := sc.survivors[:0]
	for i, v := range score {
		if v >= threshold {
			survivors = append(survivors, tableCell{idx: i, score: v})
		}
	}
	// Best first, exact ties in grid order: a total order, so this is the
	// order a stable sort by score alone leaves the grid-ordered survivors.
	slices.SortFunc(survivors, func(a, b tableCell) int {
		if c := byScoreDesc(a.score, b.score); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	sc.survivors = survivors
	groups := sc.groups[:0]
	for _, c := range survivors {
		pi := grid.At(c.idx)
		joined := false
		for gi := range groups {
			g := &groups[gi]
			// Dist is math.Hypot of the two axis offsets, which is never
			// below either offset: a cell that far along one axis cannot
			// join, and skipping the Hypot for it changes no decision.
			if math.Abs(g.rep.X-pi.X) >= suppress || math.Abs(g.rep.Z-pi.Z) >= suppress {
				continue
			}
			if g.rep.Dist(pi) < suppress {
				if g.n < maxCellsPerGroup {
					g.cells[g.n] = c.idx
					g.n++
				}
				joined = true
				break
			}
		}
		if !joined && len(groups) < k {
			groups = append(groups, cellGroup{rep: pi, n: 1, cells: [maxCellsPerGroup]int{c.idx}})
		}
	}
	sc.groups = groups
	return groups
}
