// Package orbit implements the orbital-mechanics substrate of the LSN
// simulator: Keplerian element propagation, Walker-Delta constellation
// generation (the Starlink Shell-I geometry used in the paper), a TLE
// codec, and a synthetic sun-synchronous Earth-observation fleet that
// stands in for the Planet Labs constellation in offline environments.
package orbit

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spacebooking/internal/geo"
)

// Elements is a set of classical Keplerian orbital elements referenced to
// an epoch. Angles are degrees to match operator-facing conventions (TLEs,
// FCC filings); they are converted internally.
type Elements struct {
	SemiMajorKm    float64
	Eccentricity   float64
	InclinationDeg float64
	RAANDeg        float64
	ArgPerigeeDeg  float64
	MeanAnomalyDeg float64
	Epoch          time.Time
}

// Validate reports whether the element set describes a physically
// propagatable orbit. Every field must be finite: the range checks below
// are all false for NaN, and the angles have no range to check.
func (e Elements) Validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"semi-major axis", e.SemiMajorKm},
		{"eccentricity", e.Eccentricity},
		{"inclination", e.InclinationDeg},
		{"RAAN", e.RAANDeg},
		{"argument of perigee", e.ArgPerigeeDeg},
		{"mean anomaly", e.MeanAnomalyDeg},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("orbit: %s %v is not finite", f.name, f.value)
		}
	}
	switch {
	case e.SemiMajorKm <= geo.EarthRadiusKm:
		return fmt.Errorf("orbit: semi-major axis %.1f km is inside the Earth", e.SemiMajorKm)
	case e.Eccentricity < 0 || e.Eccentricity >= 1:
		return fmt.Errorf("orbit: eccentricity %v outside [0,1)", e.Eccentricity)
	case e.InclinationDeg < 0 || e.InclinationDeg > 180:
		return fmt.Errorf("orbit: inclination %v outside [0,180]", e.InclinationDeg)
	case e.Epoch.IsZero():
		return errors.New("orbit: zero epoch")
	}
	return nil
}

// MeanMotionRadS returns the mean motion n = sqrt(mu/a^3) in rad/s.
func (e Elements) MeanMotionRadS() float64 {
	a := e.SemiMajorKm
	return math.Sqrt(geo.EarthMuKm3S2 / (a * a * a))
}

// PeriodSeconds returns the orbital period in seconds.
func (e Elements) PeriodSeconds() float64 {
	return 2 * math.Pi / e.MeanMotionRadS()
}

// solveKepler solves Kepler's equation M = E - e sinE for the eccentric
// anomaly E using Newton iteration. For the near-circular orbits in this
// simulator it converges in 2-3 iterations. A circular orbit returns M
// without iterating: there the first Newton step is exactly M − 0, so
// the result is the same bits.
func solveKepler(meanAnomaly, ecc float64) float64 {
	if ecc == 0 {
		return meanAnomaly
	}
	ea := meanAnomaly
	if ecc > 0.8 {
		ea = math.Pi
	}
	for i := 0; i < 20; i++ {
		f := ea - ecc*math.Sin(ea) - meanAnomaly
		fp := 1 - ecc*math.Cos(ea)
		delta := f / fp
		ea -= delta
		if math.Abs(delta) < 1e-12 {
			break
		}
	}
	return ea
}

// PositionECI propagates the elements to time t under two-body dynamics
// and returns the ECI position in kilometres.
//
// J2 nodal regression is deliberately not modelled: over the paper's
// 384-minute horizon the RAAN of a 550 km / 53° orbit drifts by less than
// 1.4°, which does not change any +Grid neighbour relation or visibility
// outcome at the 1-minute slot granularity.
func (e Elements) PositionECI(t time.Time) geo.Vec3 {
	p := e.Propagator()
	return p.PositionECI(t)
}

// Propagator is an element set with every per-orbit constant of the
// two-body propagation evaluated once: the mean anomaly at epoch, the
// mean motion, √(1−e²) and the three perifocal-to-ECI rotations. Only
// the time-dependent part is left to PositionECI: two sin/cos pairs and
// an atan2 per position on a circular orbit, plus Newton's iterations on
// an eccentric one. It holds no more than the Elements it came from, so
// those must have passed Validate for its positions to be finite.
type Propagator struct {
	epoch            time.Time
	meanAnomalyRad   float64
	meanMotionRadS   float64
	semiMajorKm      float64
	ecc              float64
	sqrtOneMinusEcc2 float64
	// Perifocal -> ECI is Rz(RAAN) Rx(inc) Rz(argPerigee).
	argPerigee, inclination, raan geo.Rotation
}

// Propagator returns the elements' propagator.
func (e Elements) Propagator() Propagator {
	return Propagator{
		epoch:            e.Epoch,
		meanAnomalyRad:   geo.DegToRad(e.MeanAnomalyDeg),
		meanMotionRadS:   e.MeanMotionRadS(),
		semiMajorKm:      e.SemiMajorKm,
		ecc:              e.Eccentricity,
		sqrtOneMinusEcc2: math.Sqrt(1 - e.Eccentricity*e.Eccentricity),
		argPerigee:       geo.NewRotation(geo.DegToRad(e.ArgPerigeeDeg)),
		inclination:      geo.NewRotation(geo.DegToRad(e.InclinationDeg)),
		raan:             geo.NewRotation(geo.DegToRad(e.RAANDeg)),
	}
}

// PositionECI propagates to time t under two-body dynamics and returns
// the ECI position in kilometres (see Elements.PositionECI).
func (p *Propagator) PositionECI(t time.Time) geo.Vec3 {
	dt := t.Sub(p.epoch).Seconds()
	meanAnomaly := geo.WrapTwoPi(p.meanAnomalyRad + p.meanMotionRadS*dt)

	ea := solveKepler(meanAnomaly, p.ecc)
	sinEA, cosEA := math.Sincos(ea)

	// True anomaly and radius.
	nu := math.Atan2(p.sqrtOneMinusEcc2*sinEA, cosEA-p.ecc)
	r := p.semiMajorKm * (1 - p.ecc*cosEA)

	// Position in the perifocal frame.
	sinNu, cosNu := math.Sincos(nu)
	perifocal := geo.Vec3{X: r * cosNu, Y: r * sinNu}
	return p.raan.Z(p.inclination.X(p.argPerigee.Z(perifocal)))
}

// CircularECI is PositionECI's shortcut for a circular orbit, dt seconds
// after the epoch. With e = 0 the eccentric and true anomalies both equal
// the mean anomaly θ = M₀ + n·dt, so the position is the perifocal
// (a·cos θ, a·sin θ, 0) through the same three rotations: one Sincos, and
// no WrapTwoPi, Atan2 or second Sincos. It agrees with PositionECI to
// rounding, not bit for bit (under 1e-9 km on a 550 km shell a hundred
// 384-minute horizons out). An eccentric orbit has no shortcut: ok is
// false.
func (p *Propagator) CircularECI(dt float64) (pos geo.Vec3, ok bool) {
	if p.ecc != 0 {
		return geo.Vec3{}, false
	}
	sin, cos := math.Sincos(p.meanAnomalyRad + p.meanMotionRadS*dt)
	perifocal := geo.Vec3{X: p.semiMajorKm * cos, Y: p.semiMajorKm * sin}
	return p.raan.Z(p.inclination.X(p.argPerigee.Z(perifocal))), true
}

// VelocityECI returns the two-body ECI velocity (km/s) at time t, via a
// small symmetric finite difference. The simulator itself only needs
// positions; velocity supports the doppler/contact-time utilities.
func (e Elements) VelocityECI(t time.Time) geo.Vec3 {
	const h = 50 * time.Millisecond
	prop := e.Propagator()
	p1 := prop.PositionECI(t.Add(-h))
	p2 := prop.PositionECI(t.Add(h))
	return p2.Sub(p1).Scale(1 / (2 * h.Seconds()))
}

// Satellite is a named satellite with orbital elements and an index that
// is stable within its constellation.
type Satellite struct {
	ID           int
	Name         string
	Plane        int // orbital plane index within its constellation, -1 if n/a
	IndexInPlane int
	Elements     Elements
}
