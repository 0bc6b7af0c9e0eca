package orbit

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"spacebooking/internal/geo"
)

// A real ISS TLE (epoch 2008-09-20), the canonical test vector used by
// most TLE implementations.
const (
	issName  = "ISS (ZARYA)"
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseTLEISS(t *testing.T) {
	tle, err := ParseTLE(issName, issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	if tle.Name != issName {
		t.Errorf("name = %q", tle.Name)
	}
	if tle.CatalogNumber != 25544 {
		t.Errorf("catalog = %d, want 25544", tle.CatalogNumber)
	}
	if tle.IntlDesignator != "98067A" {
		t.Errorf("designator = %q", tle.IntlDesignator)
	}
	e := tle.Elements
	if math.Abs(e.InclinationDeg-51.6416) > 1e-9 {
		t.Errorf("inclination = %v", e.InclinationDeg)
	}
	if math.Abs(e.RAANDeg-247.4627) > 1e-9 {
		t.Errorf("RAAN = %v", e.RAANDeg)
	}
	if math.Abs(e.Eccentricity-0.0006703) > 1e-12 {
		t.Errorf("ecc = %v", e.Eccentricity)
	}
	if math.Abs(e.ArgPerigeeDeg-130.5360) > 1e-9 {
		t.Errorf("argp = %v", e.ArgPerigeeDeg)
	}
	if math.Abs(e.MeanAnomalyDeg-325.0288) > 1e-9 {
		t.Errorf("ma = %v", e.MeanAnomalyDeg)
	}
	// 15.72 rev/day corresponds to a ~6730 km semi-major axis.
	if math.Abs(e.SemiMajorKm-6730) > 10 {
		t.Errorf("semi-major = %v, want ~6730", e.SemiMajorKm)
	}
	// Epoch: day 264.51782528 of 2008.
	if e.Epoch.Year() != 2008 || e.Epoch.YearDay() != 264 {
		t.Errorf("epoch = %v", e.Epoch)
	}
}

// withField returns a TLE line with byte columns [lo, hi) replaced by
// value, right-aligned, and its checksum recomputed, so that only the
// field under test is wrong.
func withField(line string, lo, hi int, value string) string {
	l := line[:lo] + strings.Repeat(" ", hi-lo-len(value)) + value + line[hi:68]
	return l + strconv.Itoa(tleChecksum(l))
}

// badTLEs are records ParseTLE must reject. They also seed FuzzParseTLE.
var badTLEs = []struct {
	name         string
	line1, line2 string
}{
	{"short lines", "1 25544U", "2 25544"},
	{"swapped lines", issLine2, issLine1},
	{"bad checksum line1", issLine1[:68] + "0", issLine2},
	{"bad checksum line2", issLine1, issLine2[:68] + "0"},
	{"corrupt inclination", issLine1, issLine2[:8] + "xx.xxxx" + issLine2[15:]},
	// Non-finite fields and impossible epochs, each of which used to parse.
	{"mean motion NaN", issLine1, withField(issLine2, 52, 63, "NaN")},
	{"RAAN NaN", issLine1, withField(issLine2, 17, 25, "NaN")},
	{"inclination NaN", issLine1, withField(issLine2, 8, 16, "NaN")},
	{"epoch NaN", withField(issLine1, 18, 32, "NaN"), issLine2},
	{"epoch before day 1", withField(issLine1, 18, 32, "-0001.0"), issLine2},
	// Found by FuzzParseTLE: an angle so far out of range that FormatTLE
	// cannot print it back.
	{"mean anomaly 3.25e264", issLine1, withField(issLine2, 43, 51, "325E0262")},
	// Found by FuzzParseTLE: a two-byte rune in the designator columns
	// shifts every later column of FormatTLE's line 1 by one.
	{"non-ASCII designator", withField(issLine1, 9, 17, "ΰ00067"), issLine2},
	// Found by FuzzParseTLE: a mean motion FormatTLE prints as zero.
	{"mean motion 1e-10", issLine1, withField(issLine2, 52, 63, ".0000000001")},
}

func TestParseTLEErrors(t *testing.T) {
	for _, tt := range badTLEs {
		t.Run(tt.name, func(t *testing.T) {
			if got, err := ParseTLE("X", tt.line1, tt.line2); err == nil {
				t.Errorf("expected parse error, got %+v", got.Elements)
			}
		})
	}
}

// FuzzParseTLE holds the parser to three properties on any input: it
// does not panic; a record it accepts passes Validate and propagates to
// a finite position an hour after its epoch; and FormatTLE of that
// record parses back to the same fields within the precision it prints.
func FuzzParseTLE(f *testing.F) {
	f.Add(issName, issLine1, issLine2)
	// The last instant of a leap year: FormatTLE used to print it as
	// day 367, which the parser rightly rejects.
	f.Add(issName, withField(issLine1, 18, 32, "0366.999999999"), issLine2)
	for _, bad := range badTLEs {
		f.Add("X", bad.line1, bad.line2)
	}
	walker, err := WalkerDelta(StarlinkShell1(testEpoch))
	if err != nil {
		f.Fatal(err)
	}
	eo, err := SyntheticEOFleet(DefaultEOFleetConfig(testEpoch))
	if err != nil {
		f.Fatal(err)
	}
	for _, tle := range []TLE{
		{Name: walker[777].Name, CatalogNumber: 44713, IntlDesignator: "19074A", Elements: walker[777].Elements},
		FleetTLEs(eo)[42],
	} {
		l1, l2 := FormatTLE(tle)
		f.Add(tle.Name, l1, l2)
	}
	f.Fuzz(func(t *testing.T, name, line1, line2 string) {
		tle, err := ParseTLE(name, line1, line2)
		if err != nil {
			return
		}
		e := tle.Elements
		if err := e.Validate(); err != nil {
			t.Fatalf("accepted elements fail Validate: %v", err)
		}
		pos := e.PositionECI(e.Epoch.Add(time.Hour))
		for _, c := range []float64{pos.X, pos.Y, pos.Z} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("accepted elements %+v propagate to %v", e, pos)
			}
		}
		l1, l2 := FormatTLE(tle)
		back, err := ParseTLE(name, l1, l2)
		if err != nil {
			t.Fatalf("FormatTLE output does not parse: %v\n%s\n%s", err, l1, l2)
		}
		if back.CatalogNumber != tle.CatalogNumber || back.IntlDesignator != tle.IntlDesignator {
			t.Fatalf("identity %d %q re-parsed as %d %q", tle.CatalogNumber, tle.IntlDesignator,
				back.CatalogNumber, back.IntlDesignator)
		}
		// Half a unit in the last printed place, plus the float rounding
		// of reading the decimal back.
		const slack = 1 + 1e-6
		b := back.Elements
		for _, c := range []struct {
			field     string
			got, want float64
			halfUnit  float64
			angle     bool
		}{
			{"inclination", b.InclinationDeg, e.InclinationDeg, 0.5e-4, false},
			{"RAAN", b.RAANDeg, e.RAANDeg, 0.5e-4, true},
			{"argument of perigee", b.ArgPerigeeDeg, e.ArgPerigeeDeg, 0.5e-4, true},
			{"mean anomaly", b.MeanAnomalyDeg, e.MeanAnomalyDeg, 0.5e-4, true},
			{"eccentricity", b.Eccentricity, e.Eccentricity, 0.5e-7, false},
			{"mean motion", back.MeanMotionRevDay, tle.MeanMotionRevDay, 0.5e-8, false},
		} {
			d := math.Abs(c.got - c.want)
			if c.angle {
				d = math.Mod(d, 360)
				d = math.Min(d, 360-d)
			}
			if d > c.halfUnit*slack {
				t.Fatalf("%s %v re-parsed as %v\n%s\n%s", c.field, c.want, c.got, l1, l2)
			}
		}
		const halfDay = 864 * time.Microsecond / 2 // half of 1e-8 day
		if d := b.Epoch.Sub(e.Epoch).Abs(); d > halfDay+time.Microsecond {
			t.Fatalf("epoch %v re-parsed as %v\n%s\n%s", e.Epoch, b.Epoch, l1, l2)
		}
	})
}

func TestTLEChecksumOfKnownLines(t *testing.T) {
	if got := tleChecksum(issLine1); got != 7 {
		t.Errorf("line1 checksum = %d, want 7", got)
	}
	if got := tleChecksum(issLine2); got != 7 {
		t.Errorf("line2 checksum = %d, want 7", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	fleet, err := SyntheticEOFleet(EOFleetConfig{
		Count: 25, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 7, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tle := range FleetTLEs(fleet) {
		l1, l2 := FormatTLE(tle)
		if len(l1) != 69 || len(l2) != 69 {
			t.Fatalf("formatted lines have lengths %d, %d, want 69", len(l1), len(l2))
		}
		back, err := ParseTLE(tle.Name, l1, l2)
		if err != nil {
			t.Fatalf("round-trip parse: %v\n%s\n%s", err, l1, l2)
		}
		if math.Abs(back.Elements.InclinationDeg-tle.Elements.InclinationDeg) > 1e-3 {
			t.Errorf("inclination drifted: %v -> %v", tle.Elements.InclinationDeg, back.Elements.InclinationDeg)
		}
		if math.Abs(back.Elements.SemiMajorKm-tle.Elements.SemiMajorKm) > 0.5 {
			t.Errorf("semi-major drifted: %v -> %v", tle.Elements.SemiMajorKm, back.Elements.SemiMajorKm)
		}
		if math.Abs(back.Elements.Eccentricity-tle.Elements.Eccentricity) > 1e-6 {
			t.Errorf("eccentricity drifted: %v -> %v", tle.Elements.Eccentricity, back.Elements.Eccentricity)
		}
		// Position agreement at epoch within a kilometre.
		p0 := tle.Elements.PositionECI(testEpoch)
		p1 := back.Elements.PositionECI(testEpoch)
		if p0.DistanceTo(p1) > 1.0 {
			t.Errorf("position drifted %v km after round trip", p0.DistanceTo(p1))
		}
	}
}

func TestParseTLEFileThreeLineAndTwoLine(t *testing.T) {
	input := issName + "\n" + issLine1 + "\n" + issLine2 + "\n\n" +
		issLine1 + "\n" + issLine2 + "\n"
	tles, err := ParseTLEFile(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tles) != 2 {
		t.Fatalf("got %d records, want 2", len(tles))
	}
	if tles[0].Name != issName {
		t.Errorf("first record name = %q", tles[0].Name)
	}
	if tles[1].Name != "" {
		t.Errorf("second record name = %q, want empty", tles[1].Name)
	}
}

func TestParseTLEFileTruncated(t *testing.T) {
	if _, err := ParseTLEFile(strings.NewReader(issName + "\n" + issLine1)); err == nil {
		t.Error("expected error for truncated record")
	}
}

func TestSyntheticEOFleetProperties(t *testing.T) {
	cfg := DefaultEOFleetConfig(testEpoch)
	fleet, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 223 {
		t.Fatalf("fleet size = %d, want 223", len(fleet))
	}
	for _, s := range fleet {
		alt := s.Elements.SemiMajorKm - geo.EarthRadiusKm
		if alt < 475 || alt > 525 {
			t.Errorf("%s altitude %v outside [475,525]", s.Name, alt)
		}
		// Sun-synchronous inclinations at these altitudes are ~97.2-97.5°.
		if s.Elements.InclinationDeg < 96.5 || s.Elements.InclinationDeg > 98.5 {
			t.Errorf("%s inclination %v not sun-synchronous", s.Name, s.Elements.InclinationDeg)
		}
		if err := s.Elements.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSyntheticEOFleetDeterministic(t *testing.T) {
	cfg := DefaultEOFleetConfig(testEpoch)
	a, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Elements != b[i].Elements {
			t.Fatalf("fleet not deterministic at index %d", i)
		}
	}
}

func TestSyntheticEOFleetConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  EOFleetConfig
	}{
		{"zero count", EOFleetConfig{Count: 0, MinAltitudeKm: 475, MaxAltitudeKm: 525, Epoch: testEpoch}},
		{"inverted band", EOFleetConfig{Count: 5, MinAltitudeKm: 525, MaxAltitudeKm: 475, Epoch: testEpoch}},
		{"zero epoch", EOFleetConfig{Count: 5, MinAltitudeKm: 475, MaxAltitudeKm: 525}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SyntheticEOFleet(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSSOInclinationMonotonic(t *testing.T) {
	// SSO inclination grows with altitude in the LEO band.
	last := 0.0
	for alt := 400.0; alt <= 800; alt += 50 {
		inc := ssoInclinationDeg(alt)
		if inc <= last {
			t.Fatalf("SSO inclination not increasing at %v km: %v <= %v", alt, inc, last)
		}
		last = inc
	}
}
