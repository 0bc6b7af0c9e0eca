package workload

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"spacebooking/internal/topology"
)

func testPairs() []Pair {
	return []Pair{
		{Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
			Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 1}},
		{Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 2},
			Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 3}},
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(100, testPairs(), 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero rate", func(c *Config) { c.ArrivalRatePerSlot = 0 }},
		{"NaN rate", func(c *Config) { c.ArrivalRatePerSlot = math.NaN() }},   // panicked in Generate
		{"+Inf rate", func(c *Config) { c.ArrivalRatePerSlot = math.Inf(1) }}, // panicked in Generate
		{"zero min duration", func(c *Config) { c.MinDurationSlots = 0 }},
		{"inverted durations", func(c *Config) { c.MaxDurationSlots = 0 }},
		{"zero min rate", func(c *Config) { c.MinRateMbps = 0 }},
		{"inverted rates", func(c *Config) { c.MaxRateMbps = 100 }},
		{"mean outside range", func(c *Config) { c.MeanRateMbps = 9999 }},
		{"zero valuation", func(c *Config) { c.Valuation = 0 }},
		{"NaN valuation", func(c *Config) { c.Valuation = math.NaN() }}, // turned admission control off
		{"+Inf valuation", func(c *Config) { c.Valuation = math.Inf(1) }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"no pairs", func(c *Config) { c.Pairs = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig(100, testPairs(), 1)
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateBasicShape(t *testing.T) {
	cfg := DefaultConfig(200, testPairs(), 42)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	// Expected count ~ rate * horizon = 2000; allow wide tolerance.
	if len(reqs) < 1500 || len(reqs) > 2500 {
		t.Errorf("generated %d requests, expected ~2000", len(reqs))
	}
	lastArrival := -1
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.ArrivalSlot < lastArrival {
			t.Fatal("requests not ordered by arrival")
		}
		lastArrival = r.ArrivalSlot
		if r.StartSlot != r.ArrivalSlot {
			t.Fatalf("request %d starts at %d but arrives at %d", i, r.StartSlot, r.ArrivalSlot)
		}
		if r.EndSlot < r.StartSlot || r.EndSlot >= cfg.Horizon {
			t.Fatalf("request %d window [%d,%d] invalid", i, r.StartSlot, r.EndSlot)
		}
		if d := r.DurationSlots(); d < 1 || d > 10 {
			t.Fatalf("request %d duration %d outside [1,10]", i, d)
		}
		if r.RateMbps < 500 || r.RateMbps > 2000 {
			t.Fatalf("request %d rate %v outside [500,2000]", i, r.RateMbps)
		}
		if r.Valuation != 2.3e9 {
			t.Fatalf("request %d valuation %v", i, r.Valuation)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(50, testPairs(), 7)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].RateMbps != b[i].RateMbps ||
			a[i].StartSlot != b[i].StartSlot || a[i].EndSlot != b[i].EndSlot ||
			a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			t.Fatalf("request %d differs between runs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].RateMbps != c[i].RateMbps || a[i].EndSlot != c[i].EndSlot {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical workloads")
		}
	}
}

func TestGenerateArrivalRateMatches(t *testing.T) {
	for _, rate := range []float64{5, 10, 25} {
		cfg := DefaultConfig(400, testPairs(), 3)
		cfg.ArrivalRatePerSlot = rate
		reqs, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(reqs)) / 400
		if math.Abs(got-rate) > rate*0.1 {
			t.Errorf("rate %v: realised %v requests/slot", rate, got)
		}
	}
}

func TestGenerateMeanRateCalibrated(t *testing.T) {
	cfg := DefaultConfig(400, testPairs(), 11)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range reqs {
		sum += r.RateMbps
	}
	mean := sum / float64(len(reqs))
	// 1250 is the uniform-limit mean; allow sampling noise.
	if math.Abs(mean-1250) > 40 {
		t.Errorf("mean rate = %v, want ~1250", mean)
	}
}

func TestTruncExpSamplerCalibration(t *testing.T) {
	tests := []struct {
		name   string
		target float64
	}{
		{"strongly skewed", 700},
		{"mildly skewed", 1000},
		{"midpoint (uniform limit)", 1250},
	}
	rng := rand.New(rand.NewSource(4))
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := NewRateSampler(500, 2000, tt.target)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			const n = 200000
			for i := 0; i < n; i++ {
				x := s.Sample(rng)
				if x < 500 || x > 2000 {
					t.Fatalf("sample %v outside range", x)
				}
				sum += x
			}
			mean := sum / n
			if math.Abs(mean-tt.target) > 15 {
				t.Errorf("realised mean = %v, want %v", mean, tt.target)
			}
		})
	}
}

func TestTruncExpMeanLimits(t *testing.T) {
	// Rate -> 0 gives the midpoint.
	if got := truncExpMean(500, 2000, 1e-12); math.Abs(got-1250) > 1 {
		t.Errorf("uniform-limit mean = %v", got)
	}
	// Large rate concentrates near the minimum.
	if got := truncExpMean(500, 2000, 0.1); got > 520 {
		t.Errorf("high-rate mean = %v, want near 500", got)
	}
	// Mean is decreasing in rate.
	prev := truncExpMean(500, 2000, 1e-6)
	for _, r := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		m := truncExpMean(500, 2000, r)
		if m >= prev {
			t.Fatalf("mean not decreasing at rate %v", r)
		}
		prev = m
	}
}

func TestPoissonMeanAndVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, lambda := range []float64{1, 5, 25} {
		const n = 50000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(poisson(rng, lambda))
			sum += k
			sumSq += k * k
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > lambda*0.05 {
			t.Errorf("λ=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > lambda*0.1 {
			t.Errorf("λ=%v: variance %v", lambda, variance)
		}
	}
}

func TestRequestRateAt(t *testing.T) {
	flat := Request{StartSlot: 5, EndSlot: 8, RateMbps: 700}
	for slot := 5; slot <= 8; slot++ {
		if got := flat.RateAt(slot); got != 700 {
			t.Errorf("flat RateAt(%d) = %v", slot, got)
		}
	}
	if flat.DurationSlots() != 4 {
		t.Errorf("duration = %d", flat.DurationSlots())
	}

	vec := Request{StartSlot: 5, EndSlot: 8, RateVector: []float64{100, 200, 300, 250}}
	want := map[int]float64{5: 100, 6: 200, 7: 300, 8: 250}
	for slot, w := range want {
		if got := vec.RateAt(slot); got != w {
			t.Errorf("vector RateAt(%d) = %v, want %v", slot, got, w)
		}
	}
	// Out-of-window queries on a vector request are zero, not panics.
	if vec.RateAt(4) != 0 || vec.RateAt(9) != 0 {
		t.Error("out-of-window vector rate should be 0")
	}
}

func TestRequestValidate(t *testing.T) {
	tests := []struct {
		name    string
		req     Request
		wantErr bool
	}{
		{"valid flat", Request{StartSlot: 0, EndSlot: 3, RateMbps: 100}, false},
		{"valid vector", Request{StartSlot: 0, EndSlot: 2, RateVector: []float64{1, 2, 3}}, false},
		{"negative start", Request{StartSlot: -1, EndSlot: 3, RateMbps: 100}, true},
		{"inverted window", Request{StartSlot: 5, EndSlot: 4, RateMbps: 100}, true},
		{"beyond horizon", Request{StartSlot: 0, EndSlot: 99, RateMbps: 100}, true},
		{"zero flat rate", Request{StartSlot: 0, EndSlot: 3, RateMbps: 0}, true},
		{"NaN flat rate", Request{StartSlot: 0, EndSlot: 3, RateMbps: math.NaN()}, true},
		{"vector length mismatch", Request{StartSlot: 0, EndSlot: 2, RateVector: []float64{1, 2}}, true},
		{"vector zero entry", Request{StartSlot: 0, EndSlot: 1, RateVector: []float64{1, 0}}, true},
		{"vector NaN entry", Request{StartSlot: 0, EndSlot: 1, RateVector: []float64{1, math.NaN()}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.req.Validate(50); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestGeneratorInvalidConfig: Generate refuses a config it cannot draw,
// with an error and without a panic. A rate above maxSlotRate used to
// panic in the preallocation or saturate the Poisson sampler at about 745
// arrivals per slot.
func TestGeneratorInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		mutate     func(*Config)
	}{
		{"zero horizon", "horizon", func(c *Config) { c.Horizon = 0 }},
		{"rate 1e308", "708.4", func(c *Config) { c.ArrivalRatePerSlot = 1e308 }},
		{"rate above bound", "708.4", func(c *Config) { c.ArrivalRatePerSlot = math.Nextafter(maxSlotRate, math.Inf(1)) }},
	} {
		cfg := DefaultConfig(64, testPairs(), 7)
		tc.mutate(&cfg)
		if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Generate error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// The bound itself is accepted.
	cfg := DefaultConfig(2, testPairs(), 7)
	cfg.ArrivalRatePerSlot = maxSlotRate
	if _, err := Generate(cfg); err != nil {
		t.Errorf("rate at the bound: %v", err)
	}
}

// TestGenerateMeanAtHighRate: a rate well above the evaluation's but
// inside maxSlotRate draws its mean, not the sampler's saturation level.
func TestGenerateMeanAtHighRate(t *testing.T) {
	const lambda, horizon = 500.0, 40
	cfg := DefaultConfig(horizon, testPairs(), 11)
	cfg.ArrivalRatePerSlot = lambda
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The mean of 40 draws has a standard error of √(500/40) ≈ 3.5.
	if mean := float64(len(reqs)) / horizon; math.Abs(mean-lambda) > 20 {
		t.Errorf("λ=%v: realised mean %v arrivals per slot", lambda, mean)
	}
}

// TestGeneratorDeterministicAcrossGOMAXPROCS: the sequence is a pure
// function of the config, whatever GOMAXPROCS is and whichever
// goroutine generates it.
func TestGeneratorDeterministicAcrossGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, seed := range []int64{7, 42, 1001} {
		cfg := DefaultConfig(96, testPairs(), seed)
		reference, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		for _, procs := range []int{1, 2, max(4, orig)} {
			runtime.GOMAXPROCS(procs)
			// Generate concurrently; each worker must reproduce the
			// reference sequence exactly.
			const workers = 4
			results := make([][]Request, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w], _ = Generate(cfg)
				}(w)
			}
			wg.Wait()
			for w, got := range results {
				if !reflect.DeepEqual(got, reference) {
					t.Fatalf("seed %d GOMAXPROCS=%d worker %d: sequence diverges from reference", seed, procs, w)
				}
			}
		}
	}
}
