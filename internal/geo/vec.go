// Package geo provides the geodetic and astronomical primitives used by the
// LSN simulator: 3-vectors, reference-frame conversions (ECI, ECEF,
// geodetic), Greenwich sidereal time, a low-precision solar ephemeris, and
// visibility geometry (elevation angles, line-of-sight ranges).
//
// Conventions: distances are kilometres, angles are radians unless a name
// says otherwise (e.g. LatDeg), and the inertial frame is the standard
// equatorial ECI frame with +Z through the north pole and +X toward the
// vernal equinox at the reference epoch.
package geo

import "math"

// Vec3 is a Cartesian 3-vector. The zero value is the origin.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 {
	return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z}
}

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 {
	return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z}
}

// Scale returns v scaled by k.
func (v Vec3) Scale(k float64) Vec3 {
	return Vec3{k * v.X, k * v.Y, k * v.Z}
}

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 {
	return v.X*w.X + v.Y*w.Y + v.Z*w.Z
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// NormSq returns the squared Euclidean length of v, avoiding a sqrt.
func (v Vec3) NormSq() float64 {
	return v.Dot(v)
}

// Unit returns v normalised to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// DistanceTo returns the Euclidean distance between v and w.
func (v Vec3) DistanceTo(w Vec3) float64 {
	return v.Sub(w).Norm()
}

// Rotation is one angle's sine and cosine, taken once so that a fixed
// angle can rotate many vectors. It is the one rotation implementation.
type Rotation struct {
	sin, cos float64
}

// NewRotation returns the right-handed rotation by angle rad.
func NewRotation(rad float64) Rotation {
	s, c := math.Sincos(rad)
	return Rotation{sin: s, cos: c}
}

// Z rotates v about the +Z axis.
func (r Rotation) Z(v Vec3) Vec3 {
	return Vec3{
		r.cos*v.X - r.sin*v.Y,
		r.sin*v.X + r.cos*v.Y,
		v.Z,
	}
}

// X rotates v about the +X axis.
func (r Rotation) X(v Vec3) Vec3 {
	return Vec3{
		v.X,
		r.cos*v.Y - r.sin*v.Z,
		r.sin*v.Y + r.cos*v.Z,
	}
}
