package orbit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"spacebooking/internal/geo"
)

// TLE holds a parsed two-line element set. Only the fields that drive
// two-body propagation are retained; drag and higher-order terms in the
// record are validated syntactically but ignored by the propagator.
type TLE struct {
	Name             string
	CatalogNumber    int
	IntlDesignator   string
	Elements         Elements
	MeanMotionRevDay float64
}

// tleChecksum computes the modulo-10 checksum of the first 68 characters
// of a TLE line: digits count as their value, '-' counts as 1, everything
// else as 0.
func tleChecksum(line string) int {
	sum := 0
	for _, r := range line[:68] {
		switch {
		case r >= '0' && r <= '9':
			sum += int(r - '0')
		case r == '-':
			sum++
		}
	}
	return sum % 10
}

func parseTLEFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// parseTLEEpoch decodes the TLE epoch field (YYDDD.DDDDDDDD).
func parseTLEEpoch(s string) (time.Time, error) {
	f, err := parseTLEFloat(s)
	if err != nil {
		return time.Time{}, fmt.Errorf("orbit: bad TLE epoch %q: %w", s, err)
	}
	// Two year digits and a day: also false for NaN, which int() below
	// would turn into an arbitrary year.
	if !(f >= 0 && f < 100000) {
		return time.Time{}, fmt.Errorf("orbit: TLE epoch %q is not YYDDD.DDDDDDDD", s)
	}
	yy := int(f / 1000)
	dayOfYear := f - float64(yy*1000)
	if dayOfYear < 1 || dayOfYear >= 367 {
		return time.Time{}, fmt.Errorf("orbit: TLE epoch %q: day of year %v outside [1, 367)", s, dayOfYear)
	}
	year := 2000 + yy
	if yy >= 57 { // TLE convention: 57-99 => 1957-1999
		year = 1900 + yy
	}
	base := time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC)
	// Day-of-year is 1-based.
	return base.Add(time.Duration((dayOfYear - 1) * 24 * float64(time.Hour))), nil
}

// ParseTLE parses a two-line element set. The optional name line (line 0)
// may be empty. Checksums on both lines are verified.
func ParseTLE(name, line1, line2 string) (TLE, error) {
	var t TLE
	t.Name = strings.TrimSpace(name)

	if len(line1) < 69 || len(line2) < 69 {
		return t, fmt.Errorf("orbit: TLE lines must be at least 69 characters (got %d, %d)", len(line1), len(line2))
	}
	if line1[0] != '1' || line2[0] != '2' {
		return t, fmt.Errorf("orbit: TLE line numbers are %q and %q, want 1 and 2", line1[0], line2[0])
	}
	for i, line := range []string{line1, line2} {
		// Fields are byte columns, so a multi-byte rune would straddle
		// them and FormatTLE, which pads by rune, could not write them back.
		for j := 0; j < len(line); j++ {
			if line[j] >= utf8.RuneSelf {
				return t, fmt.Errorf("orbit: TLE line %d has a non-ASCII byte at column %d", i+1, j+1)
			}
		}
		want := tleChecksum(line)
		got := int(line[68] - '0')
		if got != want {
			return t, fmt.Errorf("orbit: TLE line %d checksum mismatch: got %d, want %d", i+1, got, want)
		}
	}

	catNum, err := strconv.Atoi(strings.TrimSpace(line1[2:7]))
	if err != nil {
		return t, fmt.Errorf("orbit: bad catalog number: %w", err)
	}
	t.CatalogNumber = catNum
	t.IntlDesignator = strings.TrimSpace(line1[9:17])

	epoch, err := parseTLEEpoch(line1[18:32])
	if err != nil {
		return t, err
	}

	inc, err := parseTLEFloat(line2[8:16])
	if err != nil {
		return t, fmt.Errorf("orbit: bad inclination: %w", err)
	}
	raan, err := parseTLEFloat(line2[17:25])
	if err != nil {
		return t, fmt.Errorf("orbit: bad RAAN: %w", err)
	}
	eccRaw := strings.TrimSpace(line2[26:33])
	ecc, err := strconv.ParseFloat("0."+eccRaw, 64)
	if err != nil {
		return t, fmt.Errorf("orbit: bad eccentricity %q: %w", eccRaw, err)
	}
	argp, err := parseTLEFloat(line2[34:42])
	if err != nil {
		return t, fmt.Errorf("orbit: bad argument of perigee: %w", err)
	}
	ma, err := parseTLEFloat(line2[43:51])
	if err != nil {
		return t, fmt.Errorf("orbit: bad mean anomaly: %w", err)
	}
	// The format's angles are in [0, 360); 360 itself is what FormatTLE
	// prints for an angle that rounds up to a full turn. Far outside that
	// range degrees no longer carry a usable angle.
	for _, a := range []struct {
		name  string
		value float64
	}{{"RAAN", raan}, {"argument of perigee", argp}, {"mean anomaly", ma}} {
		if !(a.value >= 0 && a.value <= 360) {
			return t, fmt.Errorf("orbit: %s %v outside [0, 360]", a.name, a.value)
		}
	}
	mm, err := parseTLEFloat(line2[52:63])
	if err != nil {
		return t, fmt.Errorf("orbit: bad mean motion: %w", err)
	}
	// The field's resolution is 1e-8 rev/day: a slower mean motion would
	// print as zero.
	if !(mm >= 1e-8) {
		return t, fmt.Errorf("orbit: mean motion %v below the field's 1e-8 rev/day", mm)
	}
	t.MeanMotionRevDay = mm

	// Semi-major axis from mean motion: n [rad/s] = sqrt(mu/a^3).
	nRadS := mm * 2 * math.Pi / 86400
	a := math.Cbrt(geo.EarthMuKm3S2 / (nRadS * nRadS))

	t.Elements = Elements{
		SemiMajorKm:    a,
		Eccentricity:   ecc,
		InclinationDeg: inc,
		RAANDeg:        raan,
		ArgPerigeeDeg:  argp,
		MeanAnomalyDeg: ma,
		Epoch:          epoch,
	}
	return t, t.Elements.Validate()
}

// FormatTLE renders a TLE back into its two canonical 69-character lines
// (name line excluded). Drag terms are zeroed. The output round-trips
// through ParseTLE.
func FormatTLE(t TLE) (line1, line2 string) {
	// Round to the field's 1e-8 day (864 µs, which divides a day) before
	// splitting off the year, so that the last instant of a year carries
	// into the next instead of printing as day 367.
	epoch := t.Elements.Epoch.Round(864 * time.Microsecond)
	epochYear := epoch.Year() % 100
	startOfYear := time.Date(epoch.Year(), time.January, 1, 0, 0, 0, 0, time.UTC)
	dayOfYear := epoch.Sub(startOfYear).Hours()/24 + 1

	mm := t.MeanMotionRevDay
	if mm == 0 {
		mm = 86400 / t.Elements.PeriodSeconds()
	}

	eccDigits := int(math.Round(t.Elements.Eccentricity * 1e7))
	if eccDigits > 9999999 {
		eccDigits = 9999999
	}

	l1 := fmt.Sprintf("1 %05dU %-8s %02d%012.8f  .00000000  00000-0  00000-0 0  999",
		t.CatalogNumber, t.IntlDesignator, epochYear, dayOfYear)
	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f    0",
		t.CatalogNumber,
		t.Elements.InclinationDeg,
		geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(t.Elements.RAANDeg))),
		eccDigits,
		geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(t.Elements.ArgPerigeeDeg))),
		geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(t.Elements.MeanAnomalyDeg))),
		mm)

	l1 = l1[:68] + strconv.Itoa(tleChecksum(l1[:68]+"0"))
	l2 = l2[:68] + strconv.Itoa(tleChecksum(l2[:68]+"0"))
	return l1, l2
}

// ParseTLEFile reads a stream of TLE records. Records may be 2-line
// (bare) or 3-line (preceded by a name line). Blank lines are skipped.
func ParseTLEFile(r io.Reader) ([]TLE, error) {
	scanner := bufio.NewScanner(r)
	var lines []string
	for scanner.Scan() {
		line := strings.TrimRight(scanner.Text(), "\r\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		lines = append(lines, line)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("orbit: reading TLE stream: %w", err)
	}

	var out []TLE
	for i := 0; i < len(lines); {
		name := ""
		if !strings.HasPrefix(lines[i], "1 ") {
			name = lines[i]
			i++
		}
		if i+1 >= len(lines) {
			return nil, fmt.Errorf("orbit: truncated TLE record at line %d", i+1)
		}
		t, err := ParseTLE(name, lines[i], lines[i+1])
		if err != nil {
			return nil, fmt.Errorf("orbit: record ending at line %d: %w", i+2, err)
		}
		out = append(out, t)
		i += 2
	}
	return out, nil
}
