package geo

import (
	"math"
	"time"
)

// SunDirectionECI returns the unit vector from the Earth's centre toward
// the Sun in the ECI frame at time t. It implements the low-precision
// solar ephemeris from the Astronomical Almanac (accurate to ~0.01°,
// which is orders of magnitude tighter than the 1-minute slotting of the
// simulation requires).
func SunDirectionECI(t time.Time) Vec3 {
	d := JulianDate(t) - 2451545.0

	// Mean longitude and mean anomaly of the Sun, degrees.
	meanLon := math.Mod(280.460+0.9856474*d, 360)
	meanAnom := DegToRad(math.Mod(357.528+0.9856003*d, 360))

	// Ecliptic longitude with the equation-of-centre correction.
	eclLon := DegToRad(meanLon + 1.915*math.Sin(meanAnom) + 0.020*math.Sin(2*meanAnom))

	// Obliquity of the ecliptic.
	obliquity := DegToRad(23.439 - 0.0000004*d)

	sinLon, cosLon := math.Sincos(eclLon)
	sinObl, cosObl := math.Sincos(obliquity)
	return Vec3{
		cosLon,
		cosObl * sinLon,
		sinObl * sinLon,
	}.Unit()
}

// InUmbra reports whether a satellite at ECI position satPos is inside the
// Earth's shadow for the given unit Sun direction, using the standard
// cylindrical shadow model: the satellite is eclipsed when it lies on the
// anti-solar side of the Earth and within one Earth radius of the shadow
// axis. The cylindrical model over-counts eclipse by <1% of the orbit
// versus a full conical model — irrelevant at 1-minute slots.
func InUmbra(satPos, sunDir Vec3) bool {
	along := satPos.Dot(sunDir)
	if along >= 0 {
		// Sunlit side of the Earth.
		return false
	}
	perp := satPos.Sub(sunDir.Scale(along))
	return perp.Norm() < EarthRadiusKm
}
