package vote

import (
	"errors"
	"math"
	"slices"
)

// ReferenceCandidates exposes referenceCandidates to the package's
// external tests, which drive it with simulated corpus acquisitions.
var ReferenceCandidates = referenceCandidates

// referenceCandidates is the hierarchical positioner's stage-1 filter,
// peak grouping and table descent written the plain way, kept as the
// reference the acquisition kernel must reproduce bit for bit. Every
// score is a direct antenna.Kernel evaluation (no steering table); the
// stage-1 survivors, every descent level and the peak groups are ranked
// by a full stable sort and then truncated; each survivor tests every
// group representative with Dist; and each group's frontier is its own
// slice. Kernel votes equal the tables' bit for bit, so CandidatesWith
// must return exactly these candidates and SearchStats. The direct
// refinement below the finest table level is the positioner's own.
func referenceCandidates(p *Positioner, obs Observations) ([]Candidate, SearchStats, error) {
	stats := SearchStats{Mode: p.cfg.Search.Mode, Stage1Points: p.coarseGrid.Len()}
	if p.cfg.Search.Mode != SearchHierarchical {
		return nil, stats, errors.New("reference: hierarchical mode only")
	}
	if len(collect(nil, p.stage1Pairs, &obs)) < 2 {
		return nil, stats, errors.New("reference: too few stage-1 pairs")
	}
	all := collect(nil, p.allPairs, &obs)
	if len(all) < 3 {
		return nil, stats, errors.New("reference: too few pairs")
	}
	grid := p.coarseGrid
	score1 := VoteMap(p.stage1Pairs, obs, grid, p.cfg.Plane)
	best1 := math.Inf(-1)
	for _, v := range score1 {
		best1 = max(best1, v)
	}
	dist := make([]float64, p.kernel.Antennas())
	direct := func(l, idx int) tableCell {
		stats.GridEvals++
		pos := p.cfg.Plane.To3D(p.multi.Level(l).Grid().At(idx))
		return tableCell{idx: idx, score: totalVote(p.kernel, dist, pos, all)}
	}
	bestFirst := func(a, b tableCell) int { return byScoreDesc(a.score, b.score) }

	var fronts [][]tableCell
	for _, g := range referenceGroups(grid, score1, best1-p.cfg.CoarseDelta, maxPeakGroups, 2*p.cfg.CoarseRes) {
		stats.Cells += len(g)
		var cells []tableCell
		for _, c := range g {
			cells = append(cells, direct(0, c))
		}
		slices.SortStableFunc(cells, bestFirst)
		if p.multi.Levels() > 1 && len(cells) > refineBranch {
			cells = cells[:refineBranch]
		}
		for l := 1; l < p.multi.Levels(); l++ {
			var next []tableCell
			for _, c := range cells {
				for _, child := range p.multi.Children(nil, l-1, c.idx) {
					if !containsCell(next, child) {
						next = append(next, direct(l, child))
					}
				}
			}
			slices.SortStableFunc(next, bestFirst)
			if len(next) > refineBranch {
				next = next[:refineBranch]
			}
			cells = next
		}
		fronts = append(fronts, cells)
	}
	branch := refineBranch
	if p.multi.Levels() > 1 {
		slices.SortStableFunc(fronts, func(a, b []tableCell) int { return byScoreDesc(a[0].score, b[0].score) })
		if k := max(p.cfg.Search.topK(positionerTopK), p.cfg.CandidateCount); len(fronts) > k {
			fronts = fronts[:k]
		}
	} else {
		branch = maxCellsPerGroup
	}
	sc := NewScratch()
	var cands []Candidate
	for _, f := range fronts {
		pos, score, evals := p.directRefine(f, all, sc, branch)
		stats.GridEvals += evals
		cands = append(cands, Candidate{Pos: pos, Score: score})
	}
	slices.SortStableFunc(cands, func(a, b Candidate) int { return byScoreDesc(a.Score, b.Score) })
	var out []Candidate
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

// referenceGroups is pickCellGroups written the plain way: survivor
// indices stable-sorted by score, every survivor tested with Dist
// against each group's first cell, groups as fresh slices.
func referenceGroups(grid Grid, score []float64, threshold float64, k int, suppress float64) [][]int {
	var survivors []int
	for i, v := range score {
		if v >= threshold {
			survivors = append(survivors, i)
		}
	}
	slices.SortStableFunc(survivors, func(a, b int) int { return byScoreDesc(score[a], score[b]) })
	var groups [][]int
	for _, i := range survivors {
		pi := grid.At(i)
		joined := false
		for gi, g := range groups {
			if grid.At(g[0]).Dist(pi) < suppress {
				if len(g) < maxCellsPerGroup {
					groups[gi] = append(g, i)
				}
				joined = true
				break
			}
		}
		if !joined && len(groups) < k {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// containsCell reports whether cells holds grid index idx: the reference
// descent's plain duplicate test.
func containsCell(cells []tableCell, idx int) bool {
	for _, c := range cells {
		if c.idx == idx {
			return true
		}
	}
	return false
}

// Children appends to dst the grid indices at level l+1 covering the cell
// at index i of level l — its childWindow — in the row-major order the
// descent visits them, and returns the extended slice.
func (m *MultiResTable) Children(dst []int, l, i int) []int {
	w := m.childWindow(l, i)
	nx := m.levels[l+1].grid.NX
	for z := w.z0; z <= w.z1; z++ {
		for x := w.x0; x <= w.x1; x++ {
			dst = append(dst, z*nx+x)
		}
	}
	return dst
}
