package pricing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestPriceTablesPinned pins both price tables' bits at the paper's μ and
// at one pair of unequal factors. Exp makes them the same on every host,
// so a digest that moves means the tables, and the prices of every
// decision, moved.
func TestPriceTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		f1, f2 float64
		want   string
	}{
		{1, 1, "45bd5fb757f83c5cab9094c57baf70b90b5605b5f7326cc388742b807e69133b"},
		{0.5, 4, "a6aa58455804564b398169327d8077e4d83f823edc53a05cce8aea7fcc63fd70"},
	} {
		p, err := Derive(tc.f1, tc.f2)
		if err != nil {
			t.Fatal(err)
		}
		f := p.Fast()
		h := sha256.New()
		var buf [8]byte
		for _, l := range []*lut{&f.congestion, &f.energy} {
			for _, v := range l.vals {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("F1=%v F2=%v: tables digest %s, pinned %s", tc.f1, tc.f2, got, tc.want)
		}
	}
}

// TestExpMatchesMathExpFMALane requires Exp to return math.Exp's bits
// wherever math.Exp takes its FMA lane: on the price tables' λ grids,
// on random inputs over the whole finite range and at the edges of
// overflow and underflow. Elsewhere math.Exp takes another lane, and the
// test is skipped.
func TestExpMatchesMathExpFMALane(t *testing.T) {
	if why := noFMALane(); why != "" {
		t.Skip(why)
	}
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -1e-300, 700, 709.78, 709.79, expOverflow,
		-700, -708.4, -708.39, -720, -744.4, -745.1, -745.2, -746, -1e10, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1)}
	for _, mu := range []float64{202, 402, 1602} {
		logMu := math.Log(mu)
		for i := 0; i <= lutSize; i++ {
			xs = append(xs, float64(logMu*float64(i))/lutSize)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		xs = append(xs, (2*rng.Float64()-1)*750, (2*rng.Float64()-1)*20)
	}
	for _, x := range xs {
		if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if !math.IsNaN(Exp(math.NaN())) {
		t.Error("Exp(NaN) is not NaN")
	}
}

// noFMALane says why math.Exp does not take its FMA lane on this host,
// or "" when it does: amd64 with AVX and FMA in /proc/cpuinfo, and
// neither turned off in GODEBUG.
func noFMALane() string {
	if runtime.GOARCH != "amd64" {
		return "math.Exp has no FMA lane on " + runtime.GOARCH
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "cannot read the CPU's features: " + err.Error()
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			if f := strings.Fields(flags); !slices.Contains(f, "avx") || !slices.Contains(f, "fma") {
				return "the CPU lacks AVX or FMA"
			}
			break
		}
	}
	avx, fma := true, true
	for _, opt := range strings.Split(os.Getenv("GODEBUG"), ",") {
		key, val, _ := strings.Cut(strings.TrimSpace(opt), "=")
		switch on := val != "off"; key {
		case "cpu.all":
			avx, fma = on, on
		case "cpu.avx":
			avx = on
		case "cpu.fma":
			fma = on
		}
	}
	if !avx || !fma {
		return "GODEBUG turns AVX or FMA off"
	}
	return ""
}
