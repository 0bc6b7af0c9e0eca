package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		wantMean float64
		wantStd  float64
	}{
		{"pair", []float64{1, 3}, 2, math.Sqrt2},
		{"constant", []float64{5, 5, 5}, 5, 0},
		{"single", []float64{7}, 7, 0},
		{"classic", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 5, math.Sqrt(32.0 / 7)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, s := MeanStd(tt.xs)
			if math.Abs(m-tt.wantMean) > 1e-12 || math.Abs(s-tt.wantStd) > 1e-12 {
				t.Errorf("MeanStd = (%v, %v), want (%v, %v)", m, s, tt.wantMean, tt.wantStd)
			}
		})
	}
	if m, s := MeanStd(nil); !math.IsNaN(m) || !math.IsNaN(s) {
		t.Error("empty input should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile sorted its input in place")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	xs := []float64{7}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := Quantile(xs, q); got != 7 {
			t.Errorf("Quantile(single, %v) = %v, want 7", q, got)
		}
	}
}

func TestQuantileExactlyOnSamplePoint(t *testing.T) {
	// With 5 elements, q = k/4 lands exactly on sorted[k]: the
	// interpolation fraction is zero and the sample itself must come
	// back, not a blend with its neighbour.
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want exactly %v", tt.q, got, tt.want)
		}
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "x", Values: []float64{1, 2, 3, 4, 5, 6, 7}}
	if got := s.Mean(); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Max(); got != 7 {
		t.Errorf("Max = %v", got)
	}
	empty := Series{}
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Max()) {
		t.Error("empty series stats should be NaN")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Fig X", "alg", "ratio", "depleted")
	tab.AddRow("CEAR", "0.91", "3")
	tab.AddFloatRow("SSP", 0.52341, 17)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig X", "alg", "CEAR", "0.5234", "17", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestTableRowPadding(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only-one")
	tab.AddRow("x", "y", "overflow-dropped")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "overflow") {
		t.Error("overflow cell should be dropped")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"rate", "welfare"}, [][]float64{{5, 0.9}, {10, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	want := "rate,welfare\n5,0.9\n10,0.75\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{3.14159, "3.142"},
		{math.NaN(), "nan"},
		{1234567, "1.235e+06"},
		{0.00012345, "0.0001234"},
	}
	for _, tt := range tests {
		if got := FormatFloat(tt.v); got != tt.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}
