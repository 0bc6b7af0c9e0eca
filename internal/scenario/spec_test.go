package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validSpec returns a minimal spec that passes validation.
func validSpec() Spec {
	return Spec{
		Version: SpecVersion,
		Name:    "test",
		Seed:    7,
		Classes: []Class{{
			Name:    "web",
			Arrival: ArrivalSpec{Process: ProcessPoisson, RatePerSlot: 2},
			Mix: MixSpec{
				MinDurationSlots: 1, MaxDurationSlots: 5,
				MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 1250,
				Valuation: 1e8,
			},
		}},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"bad version", func(s *Spec) { s.Version = 2 }, "version"},
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"no classes", func(s *Spec) { s.Classes = nil }, "no classes"},
		{"negative horizon", func(s *Spec) { s.Horizon = -1 }, "horizon"},
		{"dup class", func(s *Spec) { s.Classes = append(s.Classes, s.Classes[0]) }, "duplicate"},
		{"bad process", func(s *Spec) { s.Classes[0].Arrival.Process = "uniform" }, "unknown arrival process"},
		{"gamma no shape", func(s *Spec) {
			s.Classes[0].Arrival = ArrivalSpec{Process: ProcessGamma, RatePerSlot: 1}
		}, "shape"},
		{"zero rate", func(s *Spec) { s.Classes[0].Arrival.RatePerSlot = 0 }, "rate"},
		{"bad durations", func(s *Spec) { s.Classes[0].Mix.MaxDurationSlots = 0 }, "duration"},
		{"mean outside range", func(s *Spec) { s.Classes[0].Mix.MeanRateMbps = 9999 }, "mean rate"},
		{"bad diurnal amplitude", func(s *Spec) {
			s.Classes[0].Diurnal = &DiurnalSpec{PeriodSlots: 96, Amplitude: 1.5}
		}, "amplitude"},
		{"bad event kind", func(s *Spec) {
			s.Events = []Event{{Kind: "meteor_shower", StartSlot: 0, EndSlot: 1, Factor: 2}}
		}, "unknown event kind"},
		{"flash factor zero", func(s *Spec) {
			s.Events = []Event{{Kind: EventFlashCrowd, StartSlot: 0, EndSlot: 1}}
		}, "factor"},
		{"outage no radius", func(s *Spec) {
			s.Events = []Event{{Kind: EventRegionalOutage, StartSlot: 0, EndSlot: 1}}
		}, "radius"},
		{"outage centre north of the pole", func(s *Spec) {
			s.Events = []Event{{Kind: EventRegionalOutage, StartSlot: 0, EndSlot: 1, CenterLatDeg: 90.5, RadiusKm: 500}}
		}, "outside lat"},
		{"outage centre south of the pole", func(s *Spec) {
			s.Events = []Event{{Kind: EventRegionalOutage, StartSlot: 0, EndSlot: 1, CenterLatDeg: -91, RadiusKm: 500}}
		}, "outside lat"},
		{"outage centre east of the antimeridian", func(s *Spec) {
			s.Events = []Event{{Kind: EventRegionalOutage, StartSlot: 0, EndSlot: 1, CenterLonDeg: 181, RadiusKm: 500}}
		}, "outside lat"},
		{"outage centre west of the antimeridian", func(s *Spec) {
			s.Events = []Event{{Kind: EventRegionalOutage, StartSlot: 0, EndSlot: 1, CenterLonDeg: -200, RadiusKm: 500}}
		}, "outside lat"},
		{"event bad window", func(s *Spec) {
			s.Events = []Event{{Kind: EventFlashCrowd, StartSlot: 5, EndSlot: 2, Factor: 2}}
		}, "window"},
		{"event unknown class", func(s *Spec) {
			s.Events = []Event{{Kind: EventFlashCrowd, StartSlot: 0, EndSlot: 1, Factor: 2, Classes: []string{"nope"}}}
		}, "unknown class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutated spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"version":1,"name":"x","clases":[]}`))
	if err == nil {
		t.Fatal("typo'd key accepted")
	}
}

// parseRows are Parse inputs built on specs/smoke.json: what may follow
// the spec object, and outage centres on and past the edges of the map.
// FuzzParseSpec starts from them too.
func parseRows(t testing.TB) []struct {
	name string
	data []byte
	ok   bool
} {
	smoke, err := os.ReadFile(filepath.Join("..", "..", "specs", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	withOutage := func(lat, lon string) []byte {
		ev := `{"kind": "regional_outage", "start_slot": 1, "end_slot": 2, "radius_km": 500, "center_lat_deg": ` + lat + `, "center_lon_deg": ` + lon + `}`
		return bytes.Replace(smoke, []byte(`"events": [`), []byte(`"events": [`+ev+`, `), 1)
	}
	return []struct {
		name string
		data []byte
		ok   bool
	}{
		{"smoke", smoke, true},
		{"trailing whitespace", append(bytes.Clone(smoke), " \n\t\r\n"...), true},
		{"a second object", append(bytes.Clone(smoke), ` {"version": 99}`...), false},
		{"trailing garbage", append(bytes.Clone(smoke), `garbage`...), false},
		{"a stray bracket", append(bytes.Clone(smoke), `]`...), false},
		{"outage at the poles and the antimeridian", withOutage("-90", "180"), true},
		{"outage at the other corners", withOutage("90", "-180"), true},
		{"outage north of the pole", withOutage("90.01", "0"), false},
		{"outage south of the pole", withOutage("-100", "0"), false},
		{"outage east of the antimeridian", withOutage("0", "180.5"), false},
		{"outage west of the antimeridian", withOutage("0", "-360"), false},
	}
}

// TestParseRows: a spec followed by anything but whitespace, or with an
// outage centred off the map, is refused; the same spec without them
// parses.
func TestParseRows(t *testing.T) {
	for _, row := range parseRows(t) {
		t.Run(row.name, func(t *testing.T) {
			_, err := Parse(row.data)
			if (err == nil) != row.ok {
				t.Fatalf("Parse error %v, want ok = %v", err, row.ok)
			}
		})
	}
}

// FuzzParseSpec: Parse never panics, and a spec it accepts survives
// marshal → Parse unchanged. Seeded from specs/*.json and parseRows.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no spec files to seed from (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, row := range parseRows(f) {
		f.Add(row.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal a parsed spec: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("a parsed spec does not parse back: %v\n%s", err, out)
		}
		// Compared as JSON: an empty list and an absent one marshal alike.
		if back, _ := json.Marshal(again); !bytes.Equal(back, out) {
			t.Fatalf("marshal → Parse changed the spec:\n%s\n%s", out, back)
		}
	})
}

func TestParseRoundTrip(t *testing.T) {
	data := []byte(`{
		"version": 1,
		"name": "smoke",
		"seed": 42,
		"classes": [{
			"name": "bulk",
			"arrival": {"process": "gamma", "rate_per_slot": 1.5, "shape": 2},
			"mix": {"min_duration_slots": 2, "max_duration_slots": 8,
			        "min_rate_mbps": 500, "max_rate_mbps": 2000, "mean_rate_mbps": 1000,
			        "valuation": 2e8}
		}],
		"events": [{"kind": "flash_crowd", "start_slot": 10, "end_slot": 20, "factor": 3}]
	}`)
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "smoke" || s.Seed != 42 || len(s.Classes) != 1 || len(s.Events) != 1 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if s.Classes[0].Arrival.Shape != 2 {
		t.Fatalf("shape lost: %+v", s.Classes[0].Arrival)
	}
}

func TestEventTimeline(t *testing.T) {
	s := validSpec()
	s.Events = []Event{
		{Kind: EventFlashCrowd, StartSlot: 40, EndSlot: 60, Factor: 3, Classes: []string{"web"}},
		{Kind: EventRegionalOutage, StartSlot: 10, EndSlot: 20, CenterLatDeg: 40.7, CenterLonDeg: -74, RadiusKm: 500},
	}
	tl := s.EventTimeline()
	if len(tl) != 2 {
		t.Fatalf("timeline %v", tl)
	}
	if tl[0] != "flash_crowd[40-60]x3(web)" {
		t.Fatalf("flash line %q", tl[0])
	}
	if !strings.HasPrefix(tl[1], "regional_outage[10-20]@") {
		t.Fatalf("outage line %q", tl[1])
	}
}
