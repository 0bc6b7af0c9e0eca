// Package viz renders LSN snapshots as standalone SVG documents: ground
// sites, satellite sub-points, inter-satellite links and highlighted
// request paths on an equirectangular world map. No dependencies; the
// output opens in any browser.
package viz

import (
	"fmt"
	"strings"
)

// Canvas dimensions: 2 SVG units per degree.
const (
	widthUnits  = 720.0
	heightUnits = 360.0
)

// Map is an SVG scene under construction. The zero value is not usable;
// create with NewMap.
type Map struct {
	elements []string
	title    string
}

// NewMap starts an empty scene.
func NewMap(title string) *Map {
	return &Map{title: title}
}

// project converts geodetic degrees into SVG coordinates
// (equirectangular: x from longitude, y from latitude, north up).
func project(latDeg, lonDeg float64) (x, y float64) {
	x = (lonDeg + 180) * 2
	y = (90 - latDeg) * 2
	return x, y
}

// esc escapes the XML-special characters of a label.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// AddSite draws a ground site as a small square.
func (m *Map) AddSite(latDeg, lonDeg float64, color string) {
	x, y := project(latDeg, lonDeg)
	m.elements = append(m.elements, fmt.Sprintf(
		`<rect x="%.1f" y="%.1f" width="3" height="3" fill="%s"/>`, x-1.5, y-1.5, esc(color)))
}

// AddSatellite draws a satellite sub-point as a circle; sunlit
// satellites get the given fill, eclipsed ones are darkened.
func (m *Map) AddSatellite(latDeg, lonDeg float64, sunlit bool, color string) {
	x, y := project(latDeg, lonDeg)
	fill := color
	if !sunlit {
		fill = "#444466"
	}
	m.elements = append(m.elements, fmt.Sprintf(
		`<circle cx="%.1f" cy="%.1f" r="1.6" fill="%s"/>`, x, y, esc(fill)))
}

// AddLink draws a line between two geodetic points, splitting segments
// that cross the antimeridian so they do not streak across the map.
func (m *Map) AddLink(lat1, lon1, lat2, lon2 float64, color string, width float64) {
	if wrapsAntimeridian(lon1, lon2) {
		// Draw two half segments toward the nearer edge.
		midLat := (lat1 + lat2) / 2
		if lon1 > 0 {
			m.addSegment(lat1, lon1, midLat, 180, color, width)
			m.addSegment(midLat, -180, lat2, lon2, color, width)
		} else {
			m.addSegment(lat1, lon1, midLat, -180, color, width)
			m.addSegment(midLat, 180, lat2, lon2, color, width)
		}
		return
	}
	m.addSegment(lat1, lon1, lat2, lon2, color, width)
}

func wrapsAntimeridian(lon1, lon2 float64) bool {
	d := lon1 - lon2
	if d < 0 {
		d = -d
	}
	return d > 180
}

func (m *Map) addSegment(lat1, lon1, lat2, lon2 float64, color string, width float64) {
	x1, y1 := project(lat1, lon1)
	x2, y2 := project(lat2, lon2)
	m.elements = append(m.elements, fmt.Sprintf(
		`<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.2f"/>`,
		x1, y1, x2, y2, esc(color), width))
}

// AddLabel places small text at a geodetic point.
func (m *Map) AddLabel(latDeg, lonDeg float64, text, color string) {
	x, y := project(latDeg, lonDeg)
	m.elements = append(m.elements, fmt.Sprintf(
		`<text x="%.1f" y="%.1f" font-size="6" fill="%s">%s</text>`, x+3, y-3, esc(color), esc(text)))
}

// Legend describes one legend row.
type Legend struct {
	Color string
	Text  string
}

// Render assembles the SVG document. Elements draw in insertion order
// (later on top); the graticule and legend are added automatically.
func (m *Map) Render(legends []Legend) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %.0f %.0f">`+"\n",
		widthUnits, heightUnits+30)
	b.WriteString(`<rect width="100%" height="100%" fill="#0b1026"/>` + "\n")

	// Graticule every 30 degrees.
	for lon := -180.0; lon <= 180; lon += 30 {
		x, _ := project(0, lon)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="0" x2="%.1f" y2="%.0f" stroke="#1c2447" stroke-width="0.4"/>`+"\n",
			x, x, heightUnits)
	}
	for lat := -60.0; lat <= 60; lat += 30 {
		_, y := project(lat, 0)
		fmt.Fprintf(&b, `<line x1="0" y1="%.1f" x2="%.0f" y2="%.1f" stroke="#1c2447" stroke-width="0.4"/>`+"\n",
			y, widthUnits, y)
	}

	for _, el := range m.elements {
		b.WriteString(el)
		b.WriteByte('\n')
	}

	if m.title != "" {
		fmt.Fprintf(&b, `<text x="8" y="%.0f" font-size="9" fill="#e8e8ff">%s</text>`+"\n",
			heightUnits+12, esc(m.title))
	}
	x := 8.0
	for _, l := range legends {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.0f" r="3" fill="%s"/>`+"\n", x, heightUnits+22, esc(l.Color))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.0f" font-size="7" fill="#c8c8e8">%s</text>`+"\n",
			x+6, heightUnits+25, esc(l.Text))
		x += 12 + 4.2*float64(len(l.Text))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// NumElements reports how many drawable elements the scene holds.
func (m *Map) NumElements() int { return len(m.elements) }

// HeatRamp maps a value in [0,1] to a blue→red hex colour, used to paint
// battery depletion or link utilization.
func HeatRamp(v float64) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	r := int(60 + 195*v)
	g := int(90 * (1 - v))
	bl := int(220 * (1 - v))
	return fmt.Sprintf("#%02x%02x%02x", r, g, bl)
}
