package orbit

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"spacebooking/internal/geo"
)

// EOFleetConfig parameterises the synthetic Earth-observation fleet that
// substitutes for the 223 Planet Labs satellites the paper pulls from
// Space-Track. The defaults mirror the real fleet's gross orbit geometry:
// sun-synchronous, 475-525 km, morning/afternoon crossing planes.
type EOFleetConfig struct {
	Count         int
	MinAltitudeKm float64
	MaxAltitudeKm float64
	Seed          int64
	Epoch         time.Time
}

// DefaultEOFleetConfig returns the paper-scale fleet: 223 satellites.
func DefaultEOFleetConfig(epoch time.Time) EOFleetConfig {
	return EOFleetConfig{
		Count:         223,
		MinAltitudeKm: 475,
		MaxAltitudeKm: 525,
		Seed:          1,
		Epoch:         epoch,
	}
}

// ssoInclinationDeg returns the inclination that makes an orbit at the
// given altitude sun-synchronous (J2 nodal precession of 360°/year).
func ssoInclinationDeg(altKm float64) float64 {
	const (
		j2          = 1.08262668e-3
		precessRadS = 2 * math.Pi / (365.2422 * 86400)
	)
	a := geo.EarthRadiusKm + altKm
	n := math.Sqrt(geo.EarthMuKm3S2 / (a * a * a))
	cosI := -2 * precessRadS * a * a / (3 * j2 * n * geo.EarthRadiusKm * geo.EarthRadiusKm)
	if cosI < -1 {
		cosI = -1
	}
	return geo.RadToDeg(math.Acos(cosI))
}

// SyntheticEOFleet generates a deterministic sun-synchronous
// Earth-observation fleet. Satellites are spread across a handful of
// local-time planes (as real imaging constellations are) and uniformly
// phased within each plane, with small random jitter so that no two
// satellites are artificially co-located.
func SyntheticEOFleet(cfg EOFleetConfig) ([]Satellite, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("orbit: EO fleet count must be positive, got %d", cfg.Count)
	}
	if cfg.MinAltitudeKm <= 0 || cfg.MaxAltitudeKm < cfg.MinAltitudeKm {
		return nil, fmt.Errorf("orbit: bad EO altitude band [%v,%v]", cfg.MinAltitudeKm, cfg.MaxAltitudeKm)
	}
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("orbit: zero epoch")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	const planes = 6
	sats := make([]Satellite, 0, cfg.Count)
	for i := 0; i < cfg.Count; i++ {
		plane := i % planes
		alt := cfg.MinAltitudeKm + rng.Float64()*(cfg.MaxAltitudeKm-cfg.MinAltitudeKm)
		raan := float64(plane)*(360.0/planes) + rng.Float64()*4 - 2
		perPlane := (cfg.Count + planes - 1) / planes
		ma := float64(i/planes)*(360.0/float64(perPlane)) + rng.Float64()*3

		sats = append(sats, Satellite{
			ID:           i,
			Name:         fmt.Sprintf("EO-%03d", i),
			Plane:        plane,
			IndexInPlane: i / planes,
			Elements: Elements{
				SemiMajorKm:    geo.EarthRadiusKm + alt,
				Eccentricity:   0.0002 * rng.Float64(),
				InclinationDeg: ssoInclinationDeg(alt),
				RAANDeg:        geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(raan))),
				ArgPerigeeDeg:  rng.Float64() * 360,
				MeanAnomalyDeg: geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(ma))),
				Epoch:          cfg.Epoch,
			},
		})
	}
	return sats, nil
}
