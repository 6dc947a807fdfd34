// Package baseline implements the scheme RF-IDraw is compared against
// (§6/§8 of the paper, reference [12]): a state-of-the-art antenna-array
// angle-of-arrival system using the same total number of antennas. Two
// 4-element uniform linear arrays with λ/4 spacing (backscatter-equivalent
// of λ/2) each estimate the tag's AoA with a Bartlett beam scan; the two
// direction rays are intersected to place the tag, independently for every
// sample.
//
// Because each position estimate is independent, the baseline's errors are
// random and uncorrelated along a trajectory — exactly why its reconstructed
// words are unrecognizable (§9) while RF-IDraw's coherent errors preserve
// shape.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"rfidraw/internal/deploy"
	"rfidraw/internal/geom"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
)

// Config tunes the baseline positioner.
type Config struct {
	// Plane is the writing plane.
	Plane geom.Plane
	// Region clips estimates (readers know the room bounds).
	Region geom.Rect
	// ThetaScan is the number of angles scanned per AoA estimate.
	// Default 720 (0.25° resolution).
	ThetaScan int
	// NearField strengthens the baseline beyond the published scheme:
	// instead of the far-field ray intersection of [12], it solves the
	// near-field cone intersection numerically. The default (false)
	// reproduces the compared scheme as the paper describes it; the
	// ablation benches quantify how much the stronger variant helps.
	NearField bool
}

func (c Config) withDefaults() Config {
	if c.ThetaScan <= 0 {
		c.ThetaScan = 720
	}
	return c
}

// System is the two-array AoA baseline.
type System struct {
	dep *deploy.Baseline
	cfg Config
}

// New builds the baseline system.
func New(dep *deploy.Baseline, cfg Config) (*System, error) {
	if dep == nil {
		return nil, errors.New("baseline: nil deployment")
	}
	cfg = cfg.withDefaults()
	if cfg.Region.Width() <= 0 || cfg.Region.Height() <= 0 {
		return nil, fmt.Errorf("baseline: degenerate region %+v", cfg.Region)
	}
	return &System{dep: dep, cfg: cfg}, nil
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// arrayPhases extracts an array's per-element phases from merged
// observations; ok is false if any element is missing.
func arrayPhases(els []int, obs *vote.Observations) ([]float64, bool) {
	out := make([]float64, len(els))
	for i, id := range els {
		p, ok := obs.Phase(id)
		if !ok {
			return nil, false
		}
		out[i] = p
	}
	return out, true
}

// Localize estimates the tag position from one sample by intersecting the
// two arrays' AoA estimates in the writing plane.
//
// The published scheme ([12], §6: "the beams of the arrays are intersected
// to estimate the RFID position") treats each AoA as a planar ray from the
// array centre and intersects the two rays — the standard far-field
// approach, whose approximation error grows at close range because the
// writing plane sits 2–5 m off the wall (an AoA really constrains the tag
// to a *cone*). With Config.NearField the baseline instead solves the cone
// intersection numerically (coarse grid + pattern search), a strengthened
// variant we use for ablations.
func (s *System) Localize(obs vote.Observations) (geom.Vec2, error) {
	leftIDs := []int{1, 2, 3, 4}
	bottomIDs := []int{5, 6, 7, 8}
	lp, ok := arrayPhases(leftIDs, &obs)
	if !ok {
		return geom.Vec2{}, errors.New("baseline: left array phases incomplete")
	}
	bp, ok := arrayPhases(bottomIDs, &obs)
	if !ok {
		return geom.Vec2{}, errors.New("baseline: bottom array phases incomplete")
	}
	thetaL, err := s.dep.Left.PeakAoA(lp, s.cfg.ThetaScan)
	if err != nil {
		return geom.Vec2{}, err
	}
	thetaB, err := s.dep.Bottom.PeakAoA(bp, s.cfg.ThetaScan)
	if err != nil {
		return geom.Vec2{}, err
	}
	if !s.cfg.NearField {
		return s.localizeFarField(thetaL, thetaB)
	}
	cosL, cosB := math.Cos(thetaL), math.Cos(thetaB)

	obj := func(p geom.Vec2) float64 {
		p3 := s.cfg.Plane.To3D(p)
		dl := cosToSource(s.dep.Left.Center(), s.dep.Left.Axis(), p3) - cosL
		db := cosToSource(s.dep.Bottom.Center(), s.dep.Bottom.Axis(), p3) - cosB
		return dl*dl + db*db
	}
	// Coarse scan.
	const coarse = 0.06
	best := s.cfg.Region.Center()
	bestJ := obj(best)
	for x := s.cfg.Region.Min.X; x <= s.cfg.Region.Max.X; x += coarse {
		for z := s.cfg.Region.Min.Z; z <= s.cfg.Region.Max.Z; z += coarse {
			p := geom.Vec2{X: x, Z: z}
			if j := obj(p); j < bestJ {
				bestJ, best = j, p
			}
		}
	}
	// Pattern-search refinement.
	step := coarse / 2
	for step >= 0.002 {
		improved := false
		for dx := -1; dx <= 1; dx++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dz == 0 {
					continue
				}
				cand := s.cfg.Region.Clip(geom.Vec2{X: best.X + float64(dx)*step, Z: best.Z + float64(dz)*step})
				if j := obj(cand); j < bestJ {
					bestJ, best = j, cand
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best, nil
}

// localizeFarField is the published scheme: each AoA becomes a planar ray
// from the array centre in the writing plane, oriented into the room, and
// the two rays are intersected.
func (s *System) localizeFarField(thetaL, thetaB float64) (geom.Vec2, error) {
	rayL := s.orientedRay(s.dep.Left.DirectionRay(thetaL, s.cfg.Plane))
	rayB := s.orientedRay(s.dep.Bottom.DirectionRay(thetaB, s.cfg.Plane))
	p, ok := geom.IntersectRays(rayL, rayB)
	if !ok {
		return geom.Vec2{}, errors.New("baseline: AoA rays are parallel")
	}
	return s.cfg.Region.Clip(p), nil
}

// orientedRay flips a ray's direction when it points away from the search
// region, resolving the linear array's two-sided ambiguity the way a
// deployed system would (the room is on one known side of each array).
func (s *System) orientedRay(r geom.Ray) geom.Ray {
	if r.Dir.Dot(s.cfg.Region.Center().Sub(r.Origin)) < 0 {
		r.Dir = r.Dir.Scale(-1)
	}
	return r
}

// cosToSource is the cosine of the angle between an array's axis and the
// direction from its phase centre to the source.
func cosToSource(center, axis, src geom.Vec3) float64 {
	d := src.Sub(center)
	n := d.Norm()
	if n == 0 {
		return 0
	}
	return axis.Dot(d) / n
}

// Trace reconstructs a trajectory by localizing every sample
// independently — the baseline has no notion of motion continuity (§8.2).
// Samples whose arrays are incomplete are skipped.
func (s *System) Trace(samples []tracing.Sample) (traj.Trajectory, error) {
	points := make([]traj.Point, 0, len(samples))
	var lastErr error
	for _, sm := range samples {
		p, err := s.Localize(sm.Phase)
		if err != nil {
			lastErr = err
			continue
		}
		points = append(points, traj.Point{T: sm.T, Pos: p})
	}
	if len(points) == 0 {
		if lastErr == nil {
			lastErr = errors.New("no samples")
		}
		return traj.Trajectory{}, fmt.Errorf("baseline: no usable samples: %w", lastErr)
	}
	return traj.Trajectory{Points: points}, nil
}

// Describe returns a short human-readable description for reports.
func (s *System) Describe() string {
	return fmt.Sprintf("antenna-array AoA baseline: 2×4-element λ/4 ULAs, %d-angle Bartlett scan", s.cfg.ThetaScan)
}
