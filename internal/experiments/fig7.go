package experiments

import (
	"fmt"
	"strings"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/phys"
	"rfidraw/internal/plot"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// Fig7Variant is one wrong-start reconstruction of the letter 'q'.
type Fig7Variant struct {
	// StartOffset is the imposed initial-position offset (m).
	StartOffset geom.Vec2
	// ShapeErr is the median trajectory error after removing the
	// reconstruction's own initial offset — pure shape distortion.
	ShapeErr float64
	// AbsOffset is the reconstruction's resulting absolute displacement
	// from the truth (it tracks the wrong lobes at a shifted position).
	AbsOffset float64
}

// Fig7Report demonstrates wrong-grating-lobe shape resilience (the paper's
// Fig. 7): starting the trace one lobe away locks every pair onto an
// adjacent wrong lobe; the reconstruction is displaced but its shape is
// preserved. Starting several lobes away distorts the shape visibly.
type Fig7Report struct {
	// Correct is the correct-start reconstruction.
	Correct Fig7Variant
	// Adjacent are the eight reconstructions started one lobe away in
	// each direction (the 3×3 grid of Fig. 7a minus the centre).
	Adjacent []Fig7Variant
	// Far is a reconstruction started ≈4 lobes away (Fig. 7b).
	Far Fig7Variant
	// Plot overlays the truth and the far-start reconstruction.
	Plot string
}

// RunFig7 regenerates Fig. 7 with a noiseless channel, isolating the pure
// lobe-geometry effect just as the paper's figure does.
func RunFig7() (*Fig7Report, error) {
	dep, err := deploy.DefaultRFIDraw()
	if err != nil {
		return nil, err
	}
	plane := geom.Plane{Y: 2}
	word, err := handwriting.Write("q", geom.Vec2{X: 1.3, Z: 1.0}, handwriting.DefaultStyle(), nil)
	if err != nil {
		return nil, err
	}
	truth, err := word.Traj.Resample(80)
	if err != nil {
		return nil, err
	}
	samples := make([]tracing.Sample, truth.Len())
	for i, p := range truth.Points {
		var obs vote.Observations
		src := plane.To3D(p.Pos)
		for _, a := range dep.Antennas {
			obs.Set(a.ID, phys.PathPhase(dep.Carrier, dep.Link, a.Pos.Dist(src)))
		}
		samples[i] = tracing.Sample{T: p.T, Phase: obs}
	}
	// Trace with the wide pairs only: Fig. 7 isolates the grating-lobe
	// geometry, and the coarse pairs would otherwise bias far starts
	// back toward the truth.
	region := deploy.DefaultRegion().Expand(1.5)
	// Dense search: this experiment reproduces §5.2's full-vicinity
	// maximisation verbatim — the far-start distortion it demonstrates
	// depends on the step always taking the vicinity-wide argmax, which
	// the hierarchical search deliberately avoids.
	tr, err := tracing.NewTracer(dep.WidePairs, tracing.Config{
		Plane: plane, Region: region,
		Search: vote.SearchConfig{Mode: vote.SearchDense},
	})
	if err != nil {
		return nil, err
	}
	// One grating-lobe spacing in the writing plane: Δ ≈ R·λ/(F·D).
	lobe := plane.Y * dep.Carrier.WavelengthM / (dep.Link.TravelFactor() * dep.WidePairs[0].Separation())

	runVariant := func(offset geom.Vec2) (Fig7Variant, tracing.Result, error) {
		res, err := tr.Trace(truth.Start().Add(offset), samples)
		if err != nil {
			return Fig7Variant{}, tracing.Result{}, err
		}
		rep, err := traj.Compare(truth, res.Trajectory, traj.AlignInitial, 80)
		if err != nil {
			return Fig7Variant{}, tracing.Result{}, err
		}
		return Fig7Variant{
			StartOffset: offset,
			ShapeErr:    rep.Summary().Median,
			AbsOffset:   rep.Offset.Norm(),
		}, res, nil
	}

	rep := &Fig7Report{}
	var res tracing.Result
	if rep.Correct, res, err = runVariant(geom.Vec2{}); err != nil {
		return nil, err
	}
	_ = res
	for _, d := range [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
		v, _, err := runVariant(geom.Vec2{X: d[0] * lobe, Z: d[1] * lobe})
		if err != nil {
			return nil, err
		}
		rep.Adjacent = append(rep.Adjacent, v)
	}
	var farRes tracing.Result
	if rep.Far, farRes, err = runVariant(geom.Vec2{X: 4 * lobe, Z: 4 * lobe}); err != nil {
		return nil, err
	}
	overlay, err := plot.Trajectories(72, 24, truth.Positions(), farRes.Trajectory.Positions())
	if err != nil {
		return nil, err
	}
	rep.Plot = overlay
	return rep, nil
}

// Render formats the report.
func (r *Fig7Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7 — wrong-grating-lobe shape resilience (letter 'q')\n")
	fmt.Fprintf(&b, "correct start:          shape err %.1f mm, abs offset %.2f m\n",
		r.Correct.ShapeErr*1000, r.Correct.AbsOffset)
	for i, v := range r.Adjacent {
		fmt.Fprintf(&b, "adjacent lobe start %d:  shape err %.1f mm, abs offset %.2f m (shape preserved)\n",
			i+1, v.ShapeErr*1000, v.AbsOffset)
	}
	fmt.Fprintf(&b, "far lobe start (+4,+4): shape err %.1f mm, abs offset %.2f m (distorted)\n",
		r.Far.ShapeErr*1000, r.Far.AbsOffset)
	b.WriteString("\ntruth (*) vs far-lobe reconstruction (o):\n")
	b.WriteString(r.Plot)
	return b.String()
}
