package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"spacebooking/internal/geo"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func circular550(inclDeg, raanDeg, maDeg float64) Elements {
	return Elements{
		SemiMajorKm:    geo.EarthRadiusKm + 550,
		Eccentricity:   0,
		InclinationDeg: inclDeg,
		RAANDeg:        raanDeg,
		ArgPerigeeDeg:  0,
		MeanAnomalyDeg: maDeg,
		Epoch:          testEpoch,
	}
}

func TestElementsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Elements)
		wantErr bool
	}{
		{"valid", func(e *Elements) {}, false},
		{"inside earth", func(e *Elements) { e.SemiMajorKm = 6000 }, true},
		{"negative ecc", func(e *Elements) { e.Eccentricity = -0.1 }, true},
		{"hyperbolic", func(e *Elements) { e.Eccentricity = 1.0 }, true},
		{"bad inclination", func(e *Elements) { e.InclinationDeg = 181 }, true},
		{"zero epoch", func(e *Elements) { e.Epoch = time.Time{} }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := circular550(53, 0, 0)
			tt.mutate(&e)
			if err := e.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestPeriodAt550km(t *testing.T) {
	e := circular550(53, 0, 0)
	// The paper states 96 minutes for the 550 km shell.
	gotMin := e.PeriodSeconds() / 60
	if math.Abs(gotMin-95.6) > 0.5 {
		t.Errorf("period = %.2f min, want ~95.6", gotMin)
	}
}

func TestPositionRadiusConstantForCircularOrbit(t *testing.T) {
	e := circular550(53, 40, 10)
	want := e.SemiMajorKm
	for i := 0; i < 200; i++ {
		p := e.PositionECI(testEpoch.Add(time.Duration(i) * time.Minute))
		if math.Abs(p.Norm()-want) > 1e-6 {
			t.Fatalf("slot %d: radius %.9f, want %.9f", i, p.Norm(), want)
		}
	}
}

func TestPositionPeriodicity(t *testing.T) {
	e := circular550(53, 120, 77)
	p0 := e.PositionECI(testEpoch)
	period := time.Duration(e.PeriodSeconds() * float64(time.Second))
	p1 := e.PositionECI(testEpoch.Add(period))
	if p0.DistanceTo(p1) > 0.01 {
		t.Errorf("position after one period differs by %.4f km", p0.DistanceTo(p1))
	}
}

func TestPositionInclinationBoundsLatitude(t *testing.T) {
	// A 53° inclined orbit never exceeds |z| = a*sin(53°).
	e := circular550(53, 0, 0)
	maxZ := e.SemiMajorKm * math.Sin(geo.DegToRad(53))
	for i := 0; i < 400; i++ {
		p := e.PositionECI(testEpoch.Add(time.Duration(i) * time.Minute))
		if math.Abs(p.Z) > maxZ+1e-6 {
			t.Fatalf("slot %d: |z| = %v exceeds max %v", i, math.Abs(p.Z), maxZ)
		}
	}
}

func TestEquatorialOrbitStaysInPlane(t *testing.T) {
	e := circular550(0, 0, 0)
	for i := 0; i < 100; i++ {
		p := e.PositionECI(testEpoch.Add(time.Duration(i) * time.Minute))
		if math.Abs(p.Z) > 1e-9 {
			t.Fatalf("equatorial orbit left the plane: z = %v", p.Z)
		}
	}
}

func TestSolveKeplerIdentity(t *testing.T) {
	f := func(m, e float64) bool {
		mean := math.Mod(math.Abs(m), 2*math.Pi)
		ecc := math.Mod(math.Abs(e), 0.9)
		if math.IsNaN(mean) || math.IsNaN(ecc) {
			return true
		}
		ea := solveKepler(mean, ecc)
		back := ea - ecc*math.Sin(ea)
		return math.Abs(back-mean) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referencePositionECI is the two-body formula as written before the
// per-orbit constants moved into Propagator: the Kepler Newton loop with
// no circular shortcut, and three rotations that each take their own
// sin/cos. It shares no code with Propagator.
func referencePositionECI(e Elements, t time.Time) geo.Vec3 {
	rotZ := func(v geo.Vec3, rad float64) geo.Vec3 {
		s, c := math.Sincos(rad)
		return geo.Vec3{X: c*v.X - s*v.Y, Y: s*v.X + c*v.Y, Z: v.Z}
	}
	rotX := func(v geo.Vec3, rad float64) geo.Vec3 {
		s, c := math.Sincos(rad)
		return geo.Vec3{X: v.X, Y: c*v.Y - s*v.Z, Z: s*v.Y + c*v.Z}
	}
	dt := t.Sub(e.Epoch).Seconds()
	a := e.SemiMajorKm
	meanAnomaly := geo.WrapTwoPi(geo.DegToRad(e.MeanAnomalyDeg) + math.Sqrt(geo.EarthMuKm3S2/(a*a*a))*dt)
	ecc := e.Eccentricity
	ea := meanAnomaly
	if ecc > 0.8 {
		ea = math.Pi
	}
	for i := 0; i < 20; i++ {
		delta := (ea - ecc*math.Sin(ea) - meanAnomaly) / (1 - ecc*math.Cos(ea))
		ea -= delta
		if math.Abs(delta) < 1e-12 {
			break
		}
	}
	sinEA, cosEA := math.Sincos(ea)
	nu := math.Atan2(math.Sqrt(1-ecc*ecc)*sinEA, cosEA-ecc)
	r := a * (1 - ecc*cosEA)
	sinNu, cosNu := math.Sincos(nu)
	p := geo.Vec3{X: r * cosNu, Y: r * sinNu}
	return rotZ(rotX(rotZ(p, geo.DegToRad(e.ArgPerigeeDeg)), geo.DegToRad(e.InclinationDeg)), geo.DegToRad(e.RAANDeg))
}

// TestPropagatorMatchesReferenceFormula: hoisting the per-orbit
// trigonometry and skipping Newton on circular orbits change no bit of
// any position the simulator computes — the paper's 1 584-satellite shell
// and the 223-satellite EO fleet over 384 one-minute slots — nor of an
// eccentric real orbit or one past e = 0.8, where Newton starts at π.
func TestPropagatorMatchesReferenceFormula(t *testing.T) {
	shell, err := WalkerDelta(StarlinkShell1(testEpoch))
	if err != nil {
		t.Fatal(err)
	}
	eo, err := SyntheticEOFleet(DefaultEOFleetConfig(testEpoch))
	if err != nil {
		t.Fatal(err)
	}
	iss, err := ParseTLE(issName, issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	molniyaLike := Elements{SemiMajorKm: 26600, Eccentricity: 0.85, InclinationDeg: 63.4,
		RAANDeg: 200, ArgPerigeeDeg: 270, MeanAnomalyDeg: 10, Epoch: testEpoch}
	var elems []Elements
	for _, s := range append(shell, eo...) {
		elems = append(elems, s.Elements)
	}
	elems = append(elems, iss.Elements, molniyaLike)

	for _, e := range elems {
		prop := e.Propagator()
		for slot := 0; slot < 384; slot++ {
			at := e.Epoch.Add(time.Duration(slot) * time.Minute)
			got, want := prop.PositionECI(at), referencePositionECI(e, at)
			if math.Float64bits(got.X) != math.Float64bits(want.X) ||
				math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
				math.Float64bits(got.Z) != math.Float64bits(want.Z) {
				t.Fatalf("%+v at slot %d: propagator %v, reference %v", e, slot, got, want)
			}
			if e.PositionECI(at) != got {
				t.Fatalf("%+v at slot %d: Elements.PositionECI differs from its propagator", e, slot)
			}
		}
	}
}

func TestEccentricOrbitApsides(t *testing.T) {
	e := Elements{
		SemiMajorKm:    8000,
		Eccentricity:   0.2,
		InclinationDeg: 30,
		Epoch:          testEpoch,
	}
	// Sample one period finely and check min/max radii against a(1±e).
	period := e.PeriodSeconds()
	minR, maxR := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		p := e.PositionECI(testEpoch.Add(time.Duration(float64(i) / 2000 * period * float64(time.Second))))
		r := p.Norm()
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	if math.Abs(minR-8000*0.8) > 1 {
		t.Errorf("perigee = %v, want %v", minR, 8000*0.8)
	}
	if math.Abs(maxR-8000*1.2) > 1 {
		t.Errorf("apogee = %v, want %v", maxR, 8000*1.2)
	}
}

func TestVelocityMagnitudeCircular(t *testing.T) {
	e := circular550(53, 0, 0)
	v := e.VelocityECI(testEpoch.Add(17 * time.Minute))
	want := math.Sqrt(geo.EarthMuKm3S2 / e.SemiMajorKm) // vis-viva, circular
	if math.Abs(v.Norm()-want) > 0.01 {
		t.Errorf("speed = %v km/s, want %v", v.Norm(), want)
	}
}

func TestVelocityPerpendicularToRadiusCircular(t *testing.T) {
	e := circular550(53, 10, 20)
	at := testEpoch.Add(31 * time.Minute)
	p := e.PositionECI(at)
	v := e.VelocityECI(at)
	cosAngle := p.Dot(v) / (p.Norm() * v.Norm())
	if math.Abs(cosAngle) > 1e-3 {
		t.Errorf("radius-velocity angle cosine = %v, want ~0", cosAngle)
	}
}

// Property: two-body propagation conserves specific orbital energy
// (vis-viva): v^2/2 - mu/r == -mu/(2a) at every sampled time.
func TestVisVivaEnergyConserved(t *testing.T) {
	orbits := []Elements{
		circular550(53, 10, 20),
		{SemiMajorKm: 7500, Eccentricity: 0.1, InclinationDeg: 63.4, RAANDeg: 45, ArgPerigeeDeg: 90, MeanAnomalyDeg: 12, Epoch: testEpoch},
		{SemiMajorKm: 9000, Eccentricity: 0.3, InclinationDeg: 28.5, Epoch: testEpoch},
	}
	for oi, e := range orbits {
		want := -geo.EarthMuKm3S2 / (2 * e.SemiMajorKm)
		for i := 0; i < 50; i++ {
			at := testEpoch.Add(time.Duration(i) * 7 * time.Minute)
			r := e.PositionECI(at).Norm()
			v := e.VelocityECI(at).Norm()
			got := v*v/2 - geo.EarthMuKm3S2/r
			// The finite-difference velocity carries ~1e-6 relative error.
			if math.Abs(got-want) > 5e-3*math.Abs(want) {
				t.Fatalf("orbit %d sample %d: energy %v, want %v", oi, i, got, want)
			}
		}
	}
}

// Property: angular momentum direction is fixed (orbital plane does not
// precess under two-body dynamics).
func TestAngularMomentumDirectionFixed(t *testing.T) {
	e := Elements{SemiMajorKm: 7000, Eccentricity: 0.05, InclinationDeg: 75, RAANDeg: 120, Epoch: testEpoch}
	h0 := e.PositionECI(testEpoch).Cross(e.VelocityECI(testEpoch)).Unit()
	for i := 1; i < 30; i++ {
		at := testEpoch.Add(time.Duration(i) * 11 * time.Minute)
		h := e.PositionECI(at).Cross(e.VelocityECI(at)).Unit()
		if h.Sub(h0).Norm() > 1e-4 {
			t.Fatalf("sample %d: orbital plane drifted by %v", i, h.Sub(h0).Norm())
		}
	}
}

// TestCircularECIShortcut: a circular orbit's shortcut position is the
// exact one to rounding, at the epoch and thousands of revolutions out;
// an eccentric orbit, however slightly, has no shortcut.
func TestCircularECIShortcut(t *testing.T) {
	e := circular550(53, 40, 10)
	prop := e.Propagator()
	for _, dt := range []float64{0, 60, 5759, 86400, 2.3e6, 3e7} {
		got, ok := prop.CircularECI(dt)
		if !ok {
			t.Fatal("circular orbit reports no shortcut")
		}
		want := prop.PositionECI(testEpoch.Add(time.Duration(dt * float64(time.Second))))
		if d := got.DistanceTo(want); d > 1e-7 {
			t.Errorf("dt %v s: shortcut %v is %v km from the exact %v", dt, got, d, want)
		}
	}
	e.Eccentricity = 1e-12
	ecc := e.Propagator()
	if _, ok := ecc.CircularECI(60); ok {
		t.Error("eccentric orbit took the circular shortcut")
	}
}
