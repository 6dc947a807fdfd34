package vote

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rfidraw/internal/antenna"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
)

// TestSteeringTableVoteFollowsObsOrder checks the row scorer sums only the
// observed pairs, in pairObs order rather than pair order: with two of
// three pairs observed and listed out of pair order, every point's score
// is bit-identical to the direct votes summed in that same order — the
// order the stage-1 scan, the table descent and the direct refinement
// all share.
func TestSteeringTableVoteFollowsObsOrder(t *testing.T) {
	pairs := testPairs(t)
	plane := geom.Plane{Y: 2}
	grid, err := NewGrid(geom.Rect{Min: geom.Vec2{X: -0.2, Z: 0}, Max: geom.Vec2{X: 1.4, Z: 1.2}}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	table := NewSteeringTable(pairs, grid, plane)
	po := []pairObs{{turns: 0.02, idx: 2}, {turns: 0.13, idx: 0}}
	k := antenna.NewKernel(pairs)
	dist := make([]float64, k.Antennas())
	for i := 0; i < grid.Len(); i++ {
		want := totalVote(k, dist, plane.To3D(grid.At(i)), po)
		var single float64
		for _, o := range po {
			single += table.vote(i, []pairObs{o}, math.Inf(-1))
		}
		if got := table.vote(i, po, math.Inf(-1)); got != want || got != single {
			t.Fatalf("point %d: row score %v, direct %v, single-pair sum %v (must be bit-identical)", i, got, want, single)
		}
	}
}

// TestSteeringTableGridPointOnAntenna puts a grid point exactly on an
// antenna element (zero distance to one port): the steering value must
// stay finite and bit-identical to the direct evaluation.
func TestSteeringTableGridPointOnAntenna(t *testing.T) {
	carrier := phys.DefaultCarrier()
	a1 := antenna.Antenna{ID: 1, Pos: geom.Vec3{X: 0.2, Z: 0.4}}
	a2 := antenna.Antenna{ID: 2, Pos: geom.Vec3{X: 0.2 + 2*carrier.WavelengthM, Z: 0.4}}
	pair, err := antenna.NewPair(a1, a2, carrier, phys.Backscatter)
	if err != nil {
		t.Fatal(err)
	}
	// Plane Y=0 makes the grid live on the antenna wall; the grid origin
	// and step are chosen so a1's position (0.2, 0.4) is grid point (2, 4).
	grid, err := NewGrid(geom.Rect{Min: geom.Vec2{}, Max: geom.Vec2{X: 1, Z: 1}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	plane := geom.Plane{Y: 0}
	onAntenna := 4*grid.NX + 2
	if got := grid.At(onAntenna); got != (geom.Vec2{X: 0.2, Z: 0.4}) {
		t.Fatalf("grid point %d = %v, want the antenna position", onAntenna, got)
	}
	table := NewSteeringTable([]antenna.Pair{pair}, grid, plane)
	for i := 0; i < grid.Len(); i++ {
		v := table.vote(i, []pairObs{{turns: 0.1, idx: 0}}, math.Inf(-1))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("point %d: non-finite vote %v", i, v)
		}
		if want := pair.VoteFree(plane.To3D(grid.At(i)), 0.1); v != want {
			t.Fatalf("point %d: table vote %v != direct %v", i, v, want)
		}
	}
}

// TestMultiResTableAlignment checks the documented lattice invariant:
// point (ix, iz) of level l is point (2ix, 2iz) of level l+1, and every
// level's steering values match direct evaluation.
func TestMultiResTableAlignment(t *testing.T) {
	pairs := testPairs(t)
	plane := geom.Plane{Y: 2}
	region := geom.Rect{Min: geom.Vec2{X: -0.2, Z: 0}, Max: geom.Vec2{X: 1.0, Z: 0.8}}
	m, err := NewMultiResTable(pairs, region, plane, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Levels() != 3 {
		t.Fatalf("levels = %d", m.Levels())
	}
	if got, want := m.FinestRes(), 0.02; math.Abs(got-want) > 1e-12 {
		t.Fatalf("finest res = %v, want %v", got, want)
	}
	for l := 0; l < m.Levels()-1; l++ {
		parent, child := m.Level(l).Grid(), m.Level(l+1).Grid()
		if child.NX != 2*parent.NX-1 || child.NZ != 2*parent.NZ-1 {
			t.Fatalf("level %d: child shape %d×%d vs parent %d×%d", l, child.NX, child.NZ, parent.NX, parent.NZ)
		}
		for i := 0; i < parent.Len(); i++ {
			ix, iz := i%parent.NX, i/parent.NX
			j := (2*iz)*child.NX + 2*ix
			if parent.At(i) != child.At(j) {
				t.Fatalf("level %d point %d: parent %v != aligned child %v", l, i, parent.At(i), child.At(j))
			}
		}
	}
	for l := 0; l < m.Levels(); l++ {
		g := m.Level(l).Grid()
		for i := 0; i < g.Len(); i++ {
			for pi, p := range pairs {
				if got, want := m.Level(l).vote(i, []pairObs{{turns: 0.2, idx: pi}}, math.Inf(-1)), p.VoteFree(plane.To3D(g.At(i)), 0.2); got != want {
					t.Fatalf("level %d pair %d point %d: %v != %v", l, pi, i, got, want)
				}
			}
		}
	}
}

// TestMultiResTableChildrenCoverCell checks children stay inside the child
// grid and include the aligned centre.
func TestMultiResTableChildrenCoverCell(t *testing.T) {
	pairs := testPairs(t)
	m, err := NewMultiResTable(pairs, geom.Rect{Max: geom.Vec2{X: 0.4, Z: 0.4}}, geom.Plane{Y: 2}, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	parent, child := m.Level(0).Grid(), m.Level(1).Grid()
	for i := 0; i < parent.Len(); i++ {
		kids := m.Children(nil, 0, i)
		if len(kids) < 4 || len(kids) > 9 {
			t.Fatalf("cell %d: %d children", i, len(kids))
		}
		centre := false
		for _, k := range kids {
			if k < 0 || k >= child.Len() {
				t.Fatalf("cell %d: child %d out of range", i, k)
			}
			if child.At(k) == parent.At(i) {
				centre = true
			}
			if d := child.At(k).Dist(parent.At(i)); d > parent.Res*math.Sqrt2/2+1e-12 {
				t.Fatalf("cell %d: child %v too far from parent %v (%v)", i, child.At(k), parent.At(i), d)
			}
		}
		if !centre {
			t.Fatalf("cell %d: aligned centre missing from children", i)
		}
	}
}

func TestMultiResTableValidation(t *testing.T) {
	pairs := testPairs(t)
	if _, err := NewMultiResTable(pairs, geom.Rect{Max: geom.Vec2{X: 1, Z: 1}}, geom.Plane{Y: 2}, 0.1, 0); err == nil {
		t.Fatal("want error for 0 levels")
	}
	if _, err := NewMultiResTable(pairs, geom.Rect{Max: geom.Vec2{X: 1, Z: 1}}, geom.Plane{Y: 2}, -1, 2); err == nil {
		t.Fatal("want error for negative resolution")
	}
}

// TestCandidatesLevelsCap checks the Levels knob bounds the positioner's
// refinement depth, and the search still lands near the source: one
// level stops the table descent a level early, two keep the whole table
// stack but skip the direct subdivision below it, and each spends fewer
// evaluations than the next.
func TestCandidatesLevelsCap(t *testing.T) {
	stage1, wide := deployment(t)
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	evals := func(levels int) int {
		cfg := testConfig()
		cfg.Search = SearchConfig{Levels: levels}
		p, err := NewPositioner(stage1, wide, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs := synthObs(append(stage1, wide...), cfg.Plane.To3D(src2), 0, nil)
		cands, stats, err := p.CandidatesWith(nil, &obs)
		if err != nil {
			t.Fatal(err)
		}
		if d := cands[0].Pos.Dist(src2); d > 0.03 {
			t.Fatalf("levels %d: best candidate %v off by %v m", levels, cands[0].Pos, d)
		}
		return stats.GridEvals
	}
	if one, two, unbounded := evals(1), evals(2), evals(0); !(one < two && two < unbounded) {
		t.Fatalf("Levels 1, 2 and unbounded spent %d, %d and %d evals, want strictly rising", one, two, unbounded)
	}
}

// TestCandidatesTopKLargerThanCellCount exercises the refinement with a
// TopK far beyond the number of grid cells: every threshold-clearing cell
// is refined and the result still matches the source.
func TestCandidatesTopKLargerThanCellCount(t *testing.T) {
	stage1, wide := deployment(t)
	cfg := testConfig()
	cfg.Search = SearchConfig{TopK: 1 << 20}
	p, err := NewPositioner(stage1, wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topK := cfg.Search.topK(positionerTopK); topK <= p.coarseGrid.Len() {
		t.Fatalf("test premise broken: TopK %d not larger than grid %d", topK, p.coarseGrid.Len())
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	obs := synthObs(append(stage1, wide...), cfg.Plane.To3D(src2), 0, nil)
	cands, stats, err := p.CandidatesWith(nil, &obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := cands[0].Pos.Dist(src2); d > 0.02 {
		t.Fatalf("best candidate %v off by %v m", cands[0].Pos, d)
	}
	if stats.GridEvals <= 0 || stats.Cells <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

// TestCandidatesSingleLevelTable forces a single-level multi-resolution
// table (FineRes close to CoarseRes leaves no room for halving): the
// refinement must skip the table descent and still converge.
func TestCandidatesSingleLevelTable(t *testing.T) {
	stage1, wide := deployment(t)
	cfg := testConfig()
	cfg.CoarseRes = 0.04
	cfg.FineRes = 0.015 // 0.02 < 2×FineRes → no second table level
	p, err := NewPositioner(stage1, wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.multi.Levels() != 1 {
		t.Fatalf("multi levels = %d, want 1", p.multi.Levels())
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	obs := synthObs(append(stage1, wide...), cfg.Plane.To3D(src2), 0, nil)
	cands, err := p.Candidates(obs)
	if err != nil {
		t.Fatal(err)
	}
	if d := cands[0].Pos.Dist(src2); d > 0.03 {
		t.Fatalf("best candidate %v off by %v m", cands[0].Pos, d)
	}
}

// TestCandidatesHierMatchesDense is the package-level equivalence check:
// on noiseless and noisy synthetic observations the hierarchical best
// candidate must land within epsilon of the dense one.
func TestCandidatesHierMatchesDense(t *testing.T) {
	stage1, wide := deployment(t)
	dense := testConfig()
	dense.Search = SearchConfig{Mode: SearchDense}
	hier := testConfig()
	pd, err := NewPositioner(stage1, wide, dense)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := NewPositioner(stage1, wide, hier)
	if err != nil {
		t.Fatal(err)
	}
	for _, src2 := range []geom.Vec2{{X: 1.3, Z: 1.0}, {X: 0.6, Z: 1.5}, {X: 2.0, Z: 0.7}} {
		obs := synthObs(append(stage1, wide...), dense.Plane.To3D(src2), 0, nil)
		cd, err := pd.Candidates(obs)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := ph.Candidates(obs)
		if err != nil {
			t.Fatal(err)
		}
		if d := cd[0].Pos.Dist(ch[0].Pos); d > 0.01 {
			t.Errorf("src %v: dense best %v vs hierarchical best %v (off %v)", src2, cd[0].Pos, ch[0].Pos, d)
		}
	}
}

// TestQuickTopKMatchesStableSort: for random scores drawn from a handful
// of values (so most entries tie) and every k from 0 past the length,
// topK returns exactly the entries, in exactly the order, that a stable
// sort by descending score followed by truncation to k returns.
func TestQuickTopKMatchesStableSort(t *testing.T) {
	type entry struct {
		id    int
		score float64
	}
	score := func(e entry) float64 { return e.score }
	prop := func(raw []uint8) bool {
		in := make([]entry, len(raw))
		for i, r := range raw {
			in[i] = entry{id: i, score: -float64(r % 5)}
		}
		sorted := slices.Clone(in)
		slices.SortStableFunc(sorted, func(a, b entry) int { return byScoreDesc(a.score, b.score) })
		for k := 0; k <= len(in)+1; k++ {
			got := topK(slices.Clone(in), k, score)
			if !slices.Equal(got, sorted[:min(k, len(in))]) {
				t.Logf("k=%d: topK %v, stable sort %v", k, got, sorted[:min(k, len(in))])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidatesWithWarmScratchAllocs gates acquisition's allocations: on
// the standard deployment with a warm scratch, a CandidatesWith call
// allocates only the candidate slice it returns (at most 2 allowed).
func TestCandidatesWithWarmScratchAllocs(t *testing.T) {
	dep, err := deploy.DefaultRFIDraw()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion(), CandidateCount: 5}
	p, err := NewPositioner(dep.Stage1Pairs(), dep.WidePairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var windows []Observations
	for _, src := range []geom.Vec2{{X: 0.7, Z: 1.1}, {X: 1.5, Z: 0.6}, {X: 2.1, Z: 1.6}} {
		windows = append(windows, synthObs(dep.AllPairs(), cfg.Plane.To3D(src), 0.1, rng))
	}
	sc := NewScratch()
	for _, obs := range windows {
		if _, _, err := p.CandidatesWith(sc, &obs); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(30, func() {
		if _, _, err := p.CandidatesWith(sc, &windows[i%len(windows)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocs per CandidatesWith call", allocs)
	if allocs > 2 {
		t.Fatalf("CandidatesWith makes %v allocs/op with a warm scratch, want ≤ 2", allocs)
	}
}

// TestQuickPickCellGroupsMatchesReference: on score grids quantized to a
// few levels (so most survivors tie and ties must fall back to grid
// order), for random thresholds, group caps and suppression radii,
// pickCellGroups on one reused scratch forms exactly referenceGroups'
// groups, member for member.
func TestQuickPickCellGroupsMatchesReference(t *testing.T) {
	grid, err := NewGrid(geom.Rect{Max: geom.Vec2{X: 0.6, Z: 0.4}}, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	prop := func(seed int64, levels, k, radius uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		score := make([]float64, grid.Len())
		for i := range score {
			score[i] = -float64(rng.Intn(1 + int(levels%6)))
		}
		threshold := -float64(rng.Intn(3))
		suppress := grid.Res * float64(1+radius%8)
		want := referenceGroups(grid, score, threshold, 1+int(k%8), suppress)
		got := pickCellGroups(sc, grid, score, threshold, 1+int(k%8), suppress)
		if len(got) != len(want) {
			t.Logf("%d groups, reference %d", len(got), len(want))
			return false
		}
		for gi, g := range got {
			if !slices.Equal(g.cells[:g.n], want[gi]) || g.rep != grid.At(want[gi][0]) {
				t.Logf("group %d: %v at %v, reference %v", gi, g.cells[:g.n], g.rep, want[gi])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoundedVote is the bounded row scorer's contract, on the
// standard deployment's twelve pairs at random grid points, observations
// and floors: when the full sum is above the floor the scorer returns
// that sum bit for bit; otherwise it stops with a value at or below the
// floor and at or above the full sum, so a caller that discards scores
// at or below the floor decides as it would on full sums. The floors are
// drawn around each point's full sum, exactly at it included.
func TestQuickBoundedVote(t *testing.T) {
	d, err := deploy.DefaultRFIDraw()
	if err != nil {
		t.Fatal(err)
	}
	pairs := d.AllPairs()
	grid, err := NewGrid(deploy.DefaultRegion(), 0.04)
	if err != nil {
		t.Fatal(err)
	}
	table := NewSteeringTable(pairs, grid, geom.Plane{Y: 2})
	stops := 0
	prop := func(cell uint32, turns []float64, mask uint16, u int8) bool {
		i := int(cell % uint32(grid.Len()))
		var po []pairObs
		for p := range pairs {
			if mask&(1<<p) != 0 && p < len(turns) {
				po = append(po, pairObs{turns: math.Remainder(turns[p], 1), idx: p})
			}
		}
		full := table.vote(i, po, math.Inf(-1))
		// u spreads the floor from twice the full sum to zero; u = 0
		// puts it exactly at the full sum.
		floor := full * (1 - float64(u)/128)
		got := table.vote(i, po, floor)
		if full > floor {
			if math.Float64bits(got) != math.Float64bits(full) {
				t.Logf("point %d floor %v: %v, full sum %v", i, floor, got, full)
				return false
			}
			return true
		}
		stops++
		if !(got <= floor && got >= full) {
			t.Logf("point %d floor %v: stopped at %v, full sum %v", i, floor, got, full)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
	if stops < 1000 {
		t.Fatalf("only %d of 5000 cases stopped early", stops)
	}
}

// TestQuickKeepTopMatchesTopK: offering entries to keepTop one at a time
// leaves exactly the entries, in exactly the order, that topK leaves of
// the whole slice, for every k — the descent's running selection is the
// batch one.
func TestQuickKeepTopMatchesTopK(t *testing.T) {
	prop := func(raw []uint8) bool {
		in := make([]tableCell, len(raw))
		for i, r := range raw {
			in[i] = tableCell{idx: i, score: -float64(r % 5)}
		}
		for k := 1; k <= len(in)+1; k++ {
			var top []tableCell
			for _, c := range in {
				top = keepTop(top, k, c)
			}
			if want := topK(slices.Clone(in), k, func(c tableCell) float64 { return c.score }); !slices.Equal(top, want) {
				t.Logf("k=%d: keepTop %v, topK %v", k, top, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiResAlignedRowsMatch: point (2ix, 2iz) of every table level is
// point (ix, iz) of the level above it, so its row of steering values is
// that row bit for bit. The descent relies on it to give a branch's
// aligned child the branch's own score instead of scoring it again. It
// checks the positioner's own tables on the single-room geometries.
func TestMultiResAlignedRowsMatch(t *testing.T) {
	for _, name := range []string{"default", "rotated"} {
		g, err := deploy.GeometryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.BuildDefault()
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPositioner(d.Stage1Pairs(), d.WidePairs, Config{Plane: geom.Plane{Y: 2}, Region: g.Region()})
		if err != nil {
			t.Fatal(err)
		}
		if p.multi.Levels() < 2 {
			t.Fatalf("%s: %d table levels, nothing to compare", name, p.multi.Levels())
		}
		for l := 1; l < p.multi.Levels(); l++ {
			up, down := p.multi.Level(l-1), p.multi.Level(l)
			for i := 0; i < up.grid.Len(); i++ {
				ix, iz := i%up.grid.NX, i/up.grid.NX
				j := 2*iz*down.grid.NX + 2*ix
				a, b := up.turns[i*up.stride:(i+1)*up.stride], down.turns[j*down.stride:(j+1)*down.stride]
				for k := range a {
					if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
						t.Fatalf("%s level %d point (%d, %d) pair %d: %v, level %d reads %v", name, l-1, ix, iz, k, a[k], l, b[k])
					}
				}
			}
		}
	}
}
