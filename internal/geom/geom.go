// Package geom provides the small amount of 2-D/3-D vector geometry the
// positioning system needs: points, polylines, rays, and the writing-plane
// convention that maps the paper's 2-D (x, z) outputs into 3-D space.
//
// Coordinate convention: reader antennas are mounted on the wall plane
// y = 0 with x running right and z running up; the user writes in a plane
// parallel to the wall at y = distance. All positioning math is done with
// full 3-D Euclidean distances, while grids, trajectories and plots live
// in (x, z) within the writing plane.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a point or vector in the writing plane: X right, Z up, in metres.
type Vec2 struct {
	X, Z float64
}

// Vec3 is a point or vector in room coordinates, in metres.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns u + v.
func (u Vec2) Add(v Vec2) Vec2 { return Vec2{u.X + v.X, u.Z + v.Z} }

// Sub returns u − v.
func (u Vec2) Sub(v Vec2) Vec2 { return Vec2{u.X - v.X, u.Z - v.Z} }

// Scale returns s·u.
func (u Vec2) Scale(s float64) Vec2 { return Vec2{s * u.X, s * u.Z} }

// Dot returns the dot product u·v.
func (u Vec2) Dot(v Vec2) float64 { return u.X*v.X + u.Z*v.Z }

// Norm returns the Euclidean length of u.
func (u Vec2) Norm() float64 { return math.Hypot(u.X, u.Z) }

// Dist returns the Euclidean distance between u and v.
func (u Vec2) Dist(v Vec2) float64 { return u.Sub(v).Norm() }

// Lerp linearly interpolates from u (t=0) to v (t=1).
func (u Vec2) Lerp(v Vec2, t float64) Vec2 {
	return Vec2{u.X + t*(v.X-u.X), u.Z + t*(v.Z-u.Z)}
}

// String implements fmt.Stringer.
func (u Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", u.X, u.Z) }

// Add returns u + v.
func (u Vec3) Add(v Vec3) Vec3 { return Vec3{u.X + v.X, u.Y + v.Y, u.Z + v.Z} }

// Sub returns u − v.
func (u Vec3) Sub(v Vec3) Vec3 { return Vec3{u.X - v.X, u.Y - v.Y, u.Z - v.Z} }

// Scale returns s·u.
func (u Vec3) Scale(s float64) Vec3 { return Vec3{s * u.X, s * u.Y, s * u.Z} }

// Dot returns the dot product u·v.
func (u Vec3) Dot(v Vec3) float64 { return u.X*v.X + u.Y*v.Y + u.Z*v.Z }

// Norm returns the Euclidean length of u.
func (u Vec3) Norm() float64 { return math.Sqrt(u.Dot(u)) }

// Dist returns the Euclidean distance between u and v.
func (u Vec3) Dist(v Vec3) float64 { return u.Sub(v).Norm() }

// String implements fmt.Stringer.
func (u Vec3) String() string { return fmt.Sprintf("(%.3f, %.3f, %.3f)", u.X, u.Y, u.Z) }

// Plane is a writing plane parallel to the antenna wall at the given Y
// distance. It converts between plane coordinates (Vec2) and room
// coordinates (Vec3).
type Plane struct {
	// Y is the distance of the plane from the antenna wall, in metres.
	Y float64
}

// To3D lifts a plane point into room coordinates.
func (p Plane) To3D(v Vec2) Vec3 { return Vec3{v.X, p.Y, v.Z} }

// To2D projects a room point onto the plane's coordinates, discarding its Y.
func (p Plane) To2D(v Vec3) Vec2 { return Vec2{v.X, v.Z} }

// Rect is an axis-aligned rectangle in the writing plane, used to bound
// voting grids and plots.
type Rect struct {
	Min, Max Vec2
}

// Contains reports whether v lies inside the rectangle (inclusive).
func (r Rect) Contains(v Vec2) bool {
	return v.X >= r.Min.X && v.X <= r.Max.X && v.Z >= r.Min.Z && v.Z <= r.Max.Z
}

// Width returns the rectangle's extent along X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the rectangle's extent along Z.
func (r Rect) Height() float64 { return r.Max.Z - r.Min.Z }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Vec2 { return r.Min.Lerp(r.Max, 0.5) }

// Expand returns the rectangle grown by m on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{Vec2{r.Min.X - m, r.Min.Z - m}, Vec2{r.Max.X + m, r.Max.Z + m}}
}

// Clip returns v clamped into the rectangle.
func (r Rect) Clip(v Vec2) Vec2 {
	return Vec2{clamp(v.X, r.Min.X, r.Max.X), clamp(v.Z, r.Min.Z, r.Max.Z)}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Ray is a half-line in the writing plane, used by the AoA baseline to
// represent an array's estimated source direction.
type Ray struct {
	Origin Vec2
	// Dir is the direction; it need not be normalised.
	Dir Vec2
}

// IntersectRays returns the intersection point of two rays (treated as full
// lines) and reports whether they intersect at a single point. Parallel or
// degenerate rays return ok = false.
func IntersectRays(a, b Ray) (Vec2, bool) {
	// Solve a.Origin + s·a.Dir = b.Origin + t·b.Dir.
	det := a.Dir.X*(-b.Dir.Z) - (-b.Dir.X)*a.Dir.Z
	if math.Abs(det) < 1e-12 {
		return Vec2{}, false
	}
	rx := b.Origin.X - a.Origin.X
	rz := b.Origin.Z - a.Origin.Z
	s := (rx*(-b.Dir.Z) - (-b.Dir.X)*rz) / det
	return a.Origin.Add(a.Dir.Scale(s)), true
}

// PolylineLength returns the total arc length of the polyline.
func PolylineLength(pts []Vec2) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += pts[i].Dist(pts[i-1])
	}
	return total
}

// ResamplePolyline returns n points evenly spaced by arc length along the
// polyline. It returns nil when pts is empty or n <= 0. A single-point
// polyline is replicated.
func ResamplePolyline(pts []Vec2, n int) []Vec2 {
	if len(pts) == 0 || n <= 0 {
		return nil
	}
	out := make([]Vec2, n)
	if len(pts) == 1 {
		for i := range out {
			out[i] = pts[0]
		}
		return out
	}
	total := PolylineLength(pts)
	if total == 0 {
		for i := range out {
			out[i] = pts[0]
		}
		return out
	}
	if n == 1 {
		out[0] = pts[0]
		return out
	}
	step := total / float64(n-1)
	out[0] = pts[0]
	seg := 0
	segStart := 0.0 // arc length at pts[seg]
	segLen := pts[1].Dist(pts[0])
	for i := 1; i < n; i++ {
		target := float64(i) * step
		for target > segStart+segLen && seg < len(pts)-2 {
			segStart += segLen
			seg++
			segLen = pts[seg+1].Dist(pts[seg])
		}
		t := 0.0
		if segLen > 0 {
			t = (target - segStart) / segLen
		}
		if t > 1 {
			t = 1
		}
		out[i] = pts[seg].Lerp(pts[seg+1], t)
	}
	return out
}

// Centroid returns the mean of the points. It returns the zero vector for
// an empty slice.
func Centroid(pts []Vec2) Vec2 {
	if len(pts) == 0 {
		return Vec2{}
	}
	var c Vec2
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Bounds returns the tightest Rect containing all points. ok is false for
// an empty slice.
func Bounds(pts []Vec2) (Rect, bool) {
	if len(pts) == 0 {
		return Rect{}, false
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Z = math.Min(r.Min.Z, p.Z)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Z = math.Max(r.Max.Z, p.Z)
	}
	return r, true
}
