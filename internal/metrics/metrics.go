// Package metrics provides the small statistics and reporting toolkit the
// benchmark harness uses: mean/std aggregation across seeds, time series,
// fixed-width result tables and CSV export.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// MeanStd returns the sample mean and standard deviation (n-1 in the
// denominator, matching the paper's error bars over 5 seeded runs).
// Empty input returns (NaN, NaN); a single sample has zero deviation.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n == 1 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation. Returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Series is a named per-slot time series.
type Series struct {
	Name   string
	Values []float64
}

// Mean returns the average of the series values (NaN if empty).
func (s Series) Mean() float64 {
	m, _ := MeanStd(s.Values)
	return m
}

// Max returns the maximum value (NaN if empty).
func (s Series) Max() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	max := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Table is a fixed-width text table for bench output: the harness prints
// one table per reproduced figure, with the same rows/series the paper
// reports.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddFloatRow formats a label plus float cells with 4 significant digits.
func (t *Table) AddFloatRow(label string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, FormatFloat(v))
	}
	t.AddRow(cells...)
}

// Render writes the table in aligned fixed-width form.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes headers and numeric rows as CSV (plain encoding; cells
// contain no commas by construction).
func WriteCSV(w io.Writer, headers []string, rows [][]float64) error {
	if _, err := io.WriteString(w, strings.Join(headers, ",")+"\n"); err != nil {
		return err
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = FormatFloat(v)
		}
		if _, err := io.WriteString(w, strings.Join(cells, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// FormatFloat renders a float compactly with 4 significant digits.
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
