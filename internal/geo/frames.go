package geo

import (
	"math"
	"time"
)

// Physical constants. Values follow WGS-84 / standard astrodynamics texts.
const (
	// EarthRadiusKm is the mean equatorial radius of the Earth.
	EarthRadiusKm = 6378.137
	// EarthMuKm3S2 is the Earth's gravitational parameter in km^3/s^2.
	EarthMuKm3S2 = 398600.4418
	// EarthFlattening is the WGS-84 flattening factor.
	EarthFlattening = 1.0 / 298.257223563
	// AstronomicalUnitKm is one AU in kilometres.
	AstronomicalUnitKm = 149597870.7
)

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(rad float64) float64 { return rad * 180 / math.Pi }

// WrapTwoPi reduces an angle to [0, 2π).
func WrapTwoPi(rad float64) float64 {
	r := math.Mod(rad, 2*math.Pi)
	if r < 0 {
		r += 2 * math.Pi
	}
	return r
}

// LLA is a geodetic coordinate: latitude and longitude in degrees and
// altitude above the reference ellipsoid in kilometres.
type LLA struct {
	LatDeg float64
	LonDeg float64
	AltKm  float64
}

// J2000 is the standard astronomical reference epoch
// (2000-01-01 12:00:00 TT, approximated here as UTC).
var J2000 = time.Date(2000, time.January, 1, 12, 0, 0, 0, time.UTC)

// JulianDate returns the Julian date of t (UTC).
func JulianDate(t time.Time) float64 {
	const j2000JD = 2451545.0
	return j2000JD + t.Sub(J2000).Seconds()/86400.0
}

// GMST returns the Greenwich Mean Sidereal Time at t, in radians in
// [0, 2π). It uses the IAU-82 polynomial, which is accurate to well under
// a second of time over decades — far beyond what a 1-minute-slotted
// simulation needs.
func GMST(t time.Time) float64 {
	d := JulianDate(t) - 2451545.0
	// GMST in degrees (IAU-82, truncated).
	tCent := d / 36525.0
	gmstDeg := 280.46061837 + 360.98564736629*d +
		0.000387933*tCent*tCent - tCent*tCent*tCent/38710000.0
	return WrapTwoPi(DegToRad(gmstDeg))
}

// EarthRotation returns the rotation about +Z that takes an ECI position
// into the Earth-fixed (ECEF) frame at Greenwich sidereal angle gmstRad,
// for converting many positions taken at one instant.
func EarthRotation(gmstRad float64) Rotation {
	return NewRotation(-gmstRad)
}

// LLAToECEF converts geodetic coordinates into an ECEF position using the
// WGS-84 ellipsoid.
func LLAToECEF(p LLA) Vec3 {
	lat := DegToRad(p.LatDeg)
	lon := DegToRad(p.LonDeg)
	sinLat, cosLat := math.Sincos(lat)
	sinLon, cosLon := math.Sincos(lon)

	e2 := EarthFlattening * (2 - EarthFlattening)
	n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
	return Vec3{
		(n + p.AltKm) * cosLat * cosLon,
		(n + p.AltKm) * cosLat * sinLon,
		(n*(1-e2) + p.AltKm) * sinLat,
	}
}

// ECEFToLLA converts an ECEF position into geodetic coordinates using
// Bowring's iterative method (3 iterations, sub-metre convergence for any
// point above -10 km altitude).
func ECEFToLLA(v Vec3) LLA {
	e2 := EarthFlattening * (2 - EarthFlattening)
	p := math.Hypot(v.X, v.Y)
	lon := math.Atan2(v.Y, v.X)

	// Initial guess assumes a sphere.
	lat := math.Atan2(v.Z, p*(1-e2))
	var alt float64
	for i := 0; i < 4; i++ {
		sinLat := math.Sin(lat)
		n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
		alt = p/math.Cos(lat) - n
		lat = math.Atan2(v.Z, p*(1-e2*n/(n+alt)))
	}
	return LLA{
		LatDeg: RadToDeg(lat),
		LonDeg: RadToDeg(lon),
		AltKm:  alt,
	}
}

// ElevationDeg returns the elevation angle, in degrees, of a target at
// ECEF position target as seen from an observer at ECEF position observer.
// Positive elevations mean the target is above the observer's local
// horizon. Returns -90 if the two positions coincide.
func ElevationDeg(observer, target Vec3) float64 {
	up := observer.Unit()
	los := target.Sub(observer)
	r := los.Norm()
	if r == 0 {
		return -90
	}
	sinEl := up.Dot(los) / r
	sinEl = math.Max(-1, math.Min(1, sinEl))
	return RadToDeg(math.Asin(sinEl))
}

// GreatCircleKm returns the great-circle surface distance between two
// geodetic points, treating the Earth as a sphere of mean radius.
func GreatCircleKm(a, b LLA) float64 {
	return HaversineKm(NewSpherePoint(a), NewSpherePoint(b))
}

// SpherePoint is a surface point with the radians and cos(latitude) the
// haversine needs already taken, for measuring many distances from it.
type SpherePoint struct {
	lat, lon, cosLat float64
}

// NewSpherePoint prepares p for HaversineKm; its altitude is ignored.
func NewSpherePoint(p LLA) SpherePoint {
	lat := DegToRad(p.LatDeg)
	return SpherePoint{lat: lat, lon: DegToRad(p.LonDeg), cosLat: math.Cos(lat)}
}

// HaversineKm returns the great-circle distance between a and b on a
// sphere of mean radius. It is the one haversine: GreatCircleKm wraps it.
func HaversineKm(a, b SpherePoint) float64 {
	sinDLat := math.Sin((b.lat - a.lat) / 2)
	sinDLon := math.Sin((b.lon - a.lon) / 2)
	h := sinDLat*sinDLat + a.cosLat*b.cosLat*sinDLon*sinDLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// LineOfSightClear reports whether the straight segment between two ECI
// (or consistently ECEF) positions clears the Earth's surface by at least
// marginKm. Used to validate inter-satellite link geometry.
func LineOfSightClear(a, b Vec3, marginKm float64) bool {
	// Minimum distance from the origin to segment a-b.
	ab := b.Sub(a)
	denom := ab.NormSq()
	if denom == 0 {
		return a.Norm() >= EarthRadiusKm+marginKm
	}
	t := -a.Dot(ab) / denom
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := a.Add(ab.Scale(t))
	return closest.Norm() >= EarthRadiusKm+marginKm
}
