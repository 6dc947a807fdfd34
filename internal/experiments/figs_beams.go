package experiments

import (
	"fmt"
	"math"
	"strings"

	"rfidraw/internal/antenna"
	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/phys"
	"rfidraw/internal/plot"
	"rfidraw/internal/vote"
)

// beamGrid is the rendering grid used by the beam-pattern figures.
func beamGrid() (vote.Grid, geom.Plane) {
	region := geom.Rect{Min: geom.Vec2{X: -1.0, Z: 0}, Max: geom.Vec2{X: 3.6, Z: 3.2}}
	g, err := vote.NewGrid(region, 0.04)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return g, geom.Plane{Y: 2}
}

// arrayPattern evaluates a Bartlett-style spatial power map for an array
// observing a noiseless source: at each grid point, how well the measured
// per-element phases match that point's predicted phases.
func arrayPattern(ants []antenna.Antenna, carrier phys.Carrier, link phys.Link, src geom.Vec3, grid vote.Grid, plane geom.Plane) []float64 {
	meas := make([]float64, len(ants))
	for i, a := range ants {
		meas[i] = phys.PathPhase(carrier, link, a.Pos.Dist(src))
	}
	out := make([]float64, grid.Len())
	for gi := 0; gi < grid.Len(); gi++ {
		p := plane.To3D(grid.At(gi))
		var re, im float64
		for i, a := range ants {
			pred := phys.PathPhase(carrier, link, a.Pos.Dist(p))
			d := meas[i] - pred
			re += math.Cos(d)
			im += math.Sin(d)
		}
		out[gi] = (re*re + im*im) / float64(len(ants)*len(ants))
	}
	return out
}

// FWHMWidth estimates the half-power width (metres along x at the source's
// z row) of the main beam in a pattern — the figures' visual "beam width".
func FWHMWidth(pattern []float64, grid vote.Grid, src geom.Vec2) float64 {
	iz := int((src.Z - grid.Region.Min.Z) / grid.Res)
	if iz < 0 {
		iz = 0
	}
	if iz >= grid.NZ {
		iz = grid.NZ - 1
	}
	row := pattern[iz*grid.NX : (iz+1)*grid.NX]
	// Find the peak nearest the source column.
	srcIx := int((src.X - grid.Region.Min.X) / grid.Res)
	best := srcIx
	if best < 0 {
		best = 0
	}
	if best >= grid.NX {
		best = grid.NX - 1
	}
	for i := range row {
		if row[i] > row[best] && abs(i-srcIx) <= abs(best-srcIx) {
			best = i
		}
	}
	half := row[best] / 2
	lo, hi := best, best
	for lo > 0 && row[lo-1] >= half {
		lo--
	}
	for hi < len(row)-1 && row[hi+1] >= half {
		hi++
	}
	return float64(hi-lo+1) * grid.Res
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Fig2Report compares the beam width of 2- vs 4-antenna arrays with λ/2
// spacing (the paper's Fig. 2): more antennas, narrower beam.
type Fig2Report struct {
	Width2, Width4 float64
	Heat2, Heat4   string
}

// RunFig2 regenerates Fig. 2 with a one-way source 2 m from the arrays.
func RunFig2() (*Fig2Report, error) {
	carrier := phys.DefaultCarrier()
	lambda := carrier.WavelengthM
	grid, plane := beamGrid()
	src2 := geom.Vec2{X: 1.3, Z: 1.6}
	src := plane.To3D(src2)
	mk := func(n int) []antenna.Antenna {
		out := make([]antenna.Antenna, n)
		for i := range out {
			out[i] = antenna.Antenna{ID: i + 1, Pos: geom.Vec3{X: 1.0 + float64(i)*lambda/2}}
		}
		return out
	}
	p2 := arrayPattern(mk(2), carrier, phys.OneWay, src, grid, plane)
	p4 := arrayPattern(mk(4), carrier, phys.OneWay, src, grid, plane)
	h2, err := plot.Heatmap(p2, grid.NX, grid.NZ)
	if err != nil {
		return nil, err
	}
	h4, err := plot.Heatmap(p4, grid.NX, grid.NZ)
	if err != nil {
		return nil, err
	}
	return &Fig2Report{
		Width2: FWHMWidth(p2, grid, src2),
		Width4: FWHMWidth(p4, grid, src2),
		Heat2:  h2,
		Heat4:  h4,
	}, nil
}

// Render formats the report.
func (r *Fig2Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 — antenna array beam resolution (λ/2 spacing, one-way)\n")
	fmt.Fprintf(&b, "2-antenna beam width: %.2f m   4-antenna beam width: %.2f m (narrower)\n", r.Width2, r.Width4)
	b.WriteString("\n2-antenna array beam:\n")
	b.WriteString(r.Heat2)
	b.WriteString("\n4-antenna array beam:\n")
	b.WriteString(r.Heat4)
	return b.String()
}

// Fig3Report shows the resolution/ambiguity tradeoff of a single antenna
// pair at λ/2, λ and 8λ separation (the paper's Fig. 3).
type Fig3Report struct {
	Separations []float64 // in wavelengths
	LobeCounts  []int
	MainWidths  []float64
	Heats       []string
}

// RunFig3 regenerates Fig. 3 (one-way link, as in the paper's primer).
func RunFig3() (*Fig3Report, error) {
	carrier := phys.DefaultCarrier()
	lambda := carrier.WavelengthM
	grid, plane := beamGrid()
	src2 := geom.Vec2{X: 1.3, Z: 1.6}
	src := plane.To3D(src2)
	rep := &Fig3Report{}
	for _, sep := range []float64{0.5, 1, 8} {
		a := antenna.Antenna{ID: 1, Pos: geom.Vec3{X: 1.3 - sep*lambda/2}}
		b := antenna.Antenna{ID: 2, Pos: geom.Vec3{X: 1.3 + sep*lambda/2}}
		pair, err := antenna.NewPair(a, b, carrier, phys.OneWay)
		if err != nil {
			return nil, err
		}
		turns := pair.IdealPhaseDiffTurns(src)
		pat := pair.BeamPattern(grid.Points(), plane, turns, 0.05)
		heat, err := plot.Heatmap(pat, grid.NX, grid.NZ)
		if err != nil {
			return nil, err
		}
		rep.Separations = append(rep.Separations, sep)
		rep.LobeCounts = append(rep.LobeCounts, pair.LobeCount())
		rep.MainWidths = append(rep.MainWidths, FWHMWidth(pat, grid, src2))
		rep.Heats = append(rep.Heats, heat)
	}
	return rep, nil
}

// Render formats the report.
func (r *Fig3Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3 — resolution vs ambiguity tradeoff of one antenna pair\n")
	for i, sep := range r.Separations {
		fmt.Fprintf(&b, "separation %.1fλ: %d lobes, main-lobe width %.2f m\n",
			sep, r.LobeCounts[i], r.MainWidths[i])
	}
	for i, h := range r.Heats {
		fmt.Fprintf(&b, "\nseparation %.1fλ:\n%s", r.Separations[i], h)
	}
	return b.String()
}

// Fig4Report demonstrates multi-resolution filtering: the λ/2 pair's wide
// beam removes the 8λ pair's ambiguity while keeping its resolution (the
// paper's Fig. 4).
type Fig4Report struct {
	// LobesWide is the number of distinct high-likelihood clusters in
	// the 8λ pattern alone; LobesFiltered after applying the λ/2 filter.
	LobesWide, LobesFiltered int
	// FilteredWidth is the surviving beam's width (m), comparable to
	// the wide pair's own lobe width rather than the coarse pair's.
	FilteredWidth float64
	Heat          string
}

// RunFig4 regenerates Fig. 4.
func RunFig4() (*Fig4Report, error) {
	carrier := phys.DefaultCarrier()
	lambda := carrier.WavelengthM
	grid, plane := beamGrid()
	src2 := geom.Vec2{X: 1.3, Z: 1.6}
	src := plane.To3D(src2)
	mkPair := func(sep float64) (antenna.Pair, error) {
		a := antenna.Antenna{ID: 1, Pos: geom.Vec3{X: 1.3 - sep*lambda/2}}
		b := antenna.Antenna{ID: 2, Pos: geom.Vec3{X: 1.3 + sep*lambda/2}}
		return antenna.NewPair(a, b, carrier, phys.OneWay)
	}
	wide, err := mkPair(8)
	if err != nil {
		return nil, err
	}
	coarse, err := mkPair(0.5)
	if err != nil {
		return nil, err
	}
	wt := wide.IdealPhaseDiffTurns(src)
	ct := coarse.IdealPhaseDiffTurns(src)
	pts := grid.Points()
	wPat := wide.BeamPattern(pts, plane, wt, 0.05)
	cPat := coarse.BeamPattern(pts, plane, ct, 0.05)
	filtered := make([]float64, len(wPat))
	for i := range filtered {
		filtered[i] = wPat[i] * cPat[i]
	}
	heat, err := plot.Heatmap(filtered, grid.NX, grid.NZ)
	if err != nil {
		return nil, err
	}
	return &Fig4Report{
		LobesWide:     countRowClusters(wPat, grid, src2, 0.5),
		LobesFiltered: countRowClusters(filtered, grid, src2, 0.5),
		FilteredWidth: FWHMWidth(filtered, grid, src2),
		Heat:          heat,
	}, nil
}

// countRowClusters counts contiguous above-threshold runs along the
// source's grid row — a proxy for the number of visible lobes.
func countRowClusters(pattern []float64, grid vote.Grid, src geom.Vec2, frac float64) int {
	iz := int((src.Z - grid.Region.Min.Z) / grid.Res)
	if iz < 0 || iz >= grid.NZ {
		return 0
	}
	row := pattern[iz*grid.NX : (iz+1)*grid.NX]
	peak := 0.0
	for _, v := range row {
		if v > peak {
			peak = v
		}
	}
	th := peak * frac
	count := 0
	in := false
	for _, v := range row {
		if v >= th && !in {
			count++
			in = true
		} else if v < th {
			in = false
		}
	}
	return count
}

// Render formats the report.
func (r *Fig4Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4 — multi-resolution filtering\n")
	fmt.Fprintf(&b, "8λ pair alone: %d visible lobes; after λ/2 filter: %d (width %.2f m)\n",
		r.LobesWide, r.LobesFiltered, r.FilteredWidth)
	b.WriteString(r.Heat)
	return b.String()
}

// Fig6Report walks the four stages of multi-resolution positioning on the
// real deployment (the paper's Fig. 6): wide-pair intersections, coarse
// filter, refined filter, and the combined unambiguous estimate.
type Fig6Report struct {
	Source geom.Vec2
	// PeakErr is the distance between the combined vote map's peak and
	// the true source.
	PeakErr float64
	// Panels are the four ASCII heatmaps (a–d).
	Panels [4]string
}

// RunFig6 regenerates Fig. 6 on the standard deployment, noiselessly.
func RunFig6() (*Fig6Report, error) {
	dep, err := deploy.DefaultRFIDraw()
	if err != nil {
		return nil, err
	}
	plane := geom.Plane{Y: 2}
	region := deploy.DefaultRegion()
	grid, err := vote.NewGrid(region, 0.03)
	if err != nil {
		return nil, err
	}
	src2 := geom.Vec2{X: 1.3, Z: 1.0}
	src := plane.To3D(src2)
	var obs vote.Observations
	for _, a := range dep.Antennas {
		obs.Set(a.ID, phys.PathPhase(dep.Carrier, dep.Link, a.Pos.Dist(src)))
	}
	exp := func(m []float64) []float64 {
		out := make([]float64, len(m))
		for i, v := range m {
			out[i] = math.Exp(v / (2 * 0.03 * 0.03))
		}
		return out
	}
	maps := [][]float64{
		exp(vote.VoteMap(dep.WidePairs, obs, grid, plane)),
		exp(vote.VoteMap(dep.CoarsePairs, obs, grid, plane)),
		exp(vote.VoteMap(dep.Stage1Pairs(), obs, grid, plane)),
		exp(vote.VoteMap(dep.AllPairs(), obs, grid, plane)),
	}
	rep := &Fig6Report{Source: src2}
	for i, m := range maps {
		h, err := plot.Heatmap(m, grid.NX, grid.NZ)
		if err != nil {
			return nil, err
		}
		rep.Panels[i] = h
	}
	// Peak of the combined map.
	best := 0
	for i, v := range maps[3] {
		if v > maps[3][best] {
			best = i
		}
	}
	rep.PeakErr = grid.At(best).Dist(src2)
	return rep, nil
}

// Render formats the report.
func (r *Fig6Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6 — multi-resolution positioning stages (source at %v)\n", r.Source)
	fmt.Fprintf(&b, "combined-vote peak error: %.3f m\n", r.PeakErr)
	titles := [4]string{
		"(a) wide pairs only: high resolution, ambiguous",
		"(b) coarse λ/4 pairs: one wide filter",
		"(c) + cross pairs: finer filter",
		"(d) all pairs: unambiguous high resolution",
	}
	for i := range r.Panels {
		fmt.Fprintf(&b, "\n%s\n%s", titles[i], r.Panels[i])
	}
	return b.String()
}
