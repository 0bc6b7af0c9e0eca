package viz

import (
	"strings"
	"testing"
)

func TestProject(t *testing.T) {
	tests := []struct {
		lat, lon float64
		wantX    float64
		wantY    float64
	}{
		{0, 0, 360, 180},
		{90, -180, 0, 0},
		{-90, 180, 720, 360},
		{45, -90, 180, 90},
	}
	for _, tt := range tests {
		x, y := project(tt.lat, tt.lon)
		if x != tt.wantX || y != tt.wantY {
			t.Errorf("project(%v,%v) = (%v,%v), want (%v,%v)", tt.lat, tt.lon, x, y, tt.wantX, tt.wantY)
		}
	}
}

func TestRenderStructure(t *testing.T) {
	m := NewMap("test scene")
	m.AddSite(40.7, -74.0, "#00ff00")
	m.AddSatellite(10, 20, true, "#ffcc00")
	m.AddSatellite(-10, -20, false, "#ffcc00")
	m.AddLink(0, 0, 10, 10, "#ff0000", 1)
	m.AddLabel(40.7, -74.0, "NYC", "#ffffff")
	if m.NumElements() != 5 {
		t.Fatalf("elements = %d", m.NumElements())
	}

	out := m.Render([]Legend{{Color: "#ffcc00", Text: "satellite"}})
	for _, want := range []string{
		"<svg", "</svg>", "<rect", "<circle", "<line", "NYC", "test scene", "satellite",
		"#444466", // eclipsed satellite darkening
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Valid-ish XML: balanced svg tags, no unescaped ampersands.
	if strings.Count(out, "<svg") != 1 || strings.Count(out, "</svg>") != 1 {
		t.Error("unbalanced svg tags")
	}
}

func TestEscaping(t *testing.T) {
	m := NewMap(`a<b>&"c"`)
	m.AddLabel(0, 0, "x<y&z", "#fff")
	out := m.Render(nil)
	if strings.Contains(out, "x<y") || strings.Contains(out, `a<b>`) {
		t.Error("unescaped XML specials in output")
	}
	if !strings.Contains(out, "x&lt;y&amp;z") {
		t.Error("expected escaped label")
	}
}

func TestAntimeridianSplit(t *testing.T) {
	m := NewMap("")
	m.AddLink(10, 170, 12, -170, "#fff", 1) // crosses the date line
	if m.NumElements() != 2 {
		t.Fatalf("crossing link rendered as %d segments, want 2", m.NumElements())
	}
	m2 := NewMap("")
	m2.AddLink(10, 20, 12, 40, "#fff", 1)
	if m2.NumElements() != 1 {
		t.Fatalf("normal link rendered as %d segments", m2.NumElements())
	}
	// A segment crossing the other way.
	m3 := NewMap("")
	m3.AddLink(0, -175, 0, 175, "#fff", 1)
	if m3.NumElements() != 2 {
		t.Fatalf("westward crossing rendered as %d segments", m3.NumElements())
	}
}

// TestAntimeridianSegmentsKeepStyle renders a crossing link and checks
// both half-segments carry the per-link colour and width, meet the map
// edges at ±180°, and share the midpoint latitude.
func TestAntimeridianSegmentsKeepStyle(t *testing.T) {
	m := NewMap("")
	m.AddLink(10, 170, 30, -170, "#ff8800", 2.5)
	out := m.Render(nil)
	if got := strings.Count(out, `stroke="#ff8800"`); got != 2 {
		t.Fatalf("coloured segments = %d, want 2 in:\n%s", got, out)
	}
	if got := strings.Count(out, `stroke-width="2.50"`); got != 2 {
		t.Fatalf("width-styled segments = %d, want 2 in:\n%s", got, out)
	}
	// East half ends at lon 180 (x=720), west half restarts at -180
	// (x=0), both at the midpoint latitude 20 (y=140).
	if !strings.Contains(out, `x2="720.0" y2="140.0"`) {
		t.Errorf("east segment does not end at the +180 edge:\n%s", out)
	}
	if !strings.Contains(out, `x1="0.0" y1="140.0"`) {
		t.Errorf("west segment does not restart at the -180 edge:\n%s", out)
	}
	// A non-crossing link keeps its style on the single segment.
	m2 := NewMap("")
	m2.AddLink(0, 10, 5, 20, "#00ffaa", 0.75)
	out2 := m2.Render(nil)
	if strings.Count(out2, `stroke="#00ffaa"`) != 1 || !strings.Contains(out2, `stroke-width="0.75"`) {
		t.Fatalf("plain link lost its style:\n%s", out2)
	}
}

func TestHeatRamp(t *testing.T) {
	cold := HeatRamp(0)
	hot := HeatRamp(1)
	if cold == hot {
		t.Error("ramp endpoints identical")
	}
	if HeatRamp(-5) != cold || HeatRamp(5) != hot {
		t.Error("ramp does not clamp")
	}
	if !strings.HasPrefix(cold, "#") || len(cold) != 7 {
		t.Errorf("bad colour format %q", cold)
	}
}
