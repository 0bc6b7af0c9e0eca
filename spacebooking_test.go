package spacebooking

import (
	"math"
	"strings"
	"sync"
	"testing"

	"spacebooking/internal/sim"
)

// The small environment is expensive enough to share across tests.
var (
	envOnce sync.Once
	envInst *Environment
	envErr  error
)

func smallEnv(t *testing.T) *Environment {
	t.Helper()
	envOnce.Do(func() {
		envInst, envErr = NewEnvironment(EnvConfig{Scale: ScaleSmall})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envInst
}

var (
	mediumOnce sync.Once
	mediumInst *Environment
	mediumErr  error
)

// mediumEnv is the medium preset, built once and shared read-only.
func mediumEnv(t *testing.T) *Environment {
	t.Helper()
	mediumOnce.Do(func() {
		mediumInst, mediumErr = NewEnvironment(EnvConfig{Scale: ScaleMedium})
	})
	if mediumErr != nil {
		t.Fatal(mediumErr)
	}
	return mediumInst
}

func TestScaleStringAndParse(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScaleMedium, ScaleFull} {
		parsed, err := ParseScale(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != s {
			t.Errorf("round trip %v -> %v", s, parsed)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Error("bogus scale should error")
	}
	if got := Scale(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown scale string %q", got)
	}
}

func TestNewEnvironmentErrors(t *testing.T) {
	if _, err := NewEnvironment(EnvConfig{}); err == nil {
		t.Error("zero scale should error")
	}
}

func TestSmallEnvironmentShape(t *testing.T) {
	env := smallEnv(t)
	if env.Provider.NumSats() != 96 {
		t.Errorf("sats = %d", env.Provider.NumSats())
	}
	if env.Provider.Horizon() != 96 {
		t.Errorf("horizon = %d", env.Provider.Horizon())
	}
	if len(env.Sites) != 60 {
		t.Errorf("sites = %d", len(env.Sites))
	}
	if len(env.Pairs) != 4 {
		t.Errorf("pairs = %d", len(env.Pairs))
	}
	if env.DefaultArrivalRate() != 2 {
		t.Errorf("rate = %v", env.DefaultArrivalRate())
	}
	// All pair endpoints must be within the covered latitude band.
	maxLat := env.Provider.Config().Walker.InclinationDeg - 1
	for _, p := range env.Pairs {
		for _, ep := range []int{p.Src.Index, p.Dst.Index} {
			if math.Abs(env.Sites[ep].LatDeg) > maxLat {
				t.Errorf("pair endpoint site %d at lat %v outside coverage", ep, env.Sites[ep].LatDeg)
			}
		}
	}
}

func TestEnvironmentPairsDeterministic(t *testing.T) {
	a, err := NewEnvironment(EnvConfig{Scale: ScaleSmall, PairSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnvironment(EnvConfig{Scale: ScaleSmall, PairSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs across identical environments", i)
		}
	}
}

func TestWorkloadConfig(t *testing.T) {
	env := smallEnv(t)
	wl := env.WorkloadConfig(7, 3)
	if wl.ArrivalRatePerSlot != 7 || wl.Seed != 3 {
		t.Errorf("workload = %+v", wl)
	}
	if wl.Horizon != env.Provider.Horizon() {
		t.Errorf("horizon = %d", wl.Horizon)
	}
	if len(wl.Pairs) != len(env.Pairs) {
		t.Errorf("pairs = %d", len(wl.Pairs))
	}
}

func TestSweepRates(t *testing.T) {
	env := smallEnv(t)
	rates := env.SweepRates()
	want := []float64{1, 2, 3, 4, 5}
	if len(rates) != len(want) {
		t.Fatalf("rates = %v", rates)
	}
	for i := range want {
		if rates[i] != want[i] {
			t.Errorf("rates = %v, want %v", rates, want)
		}
	}
}

func TestRunFig6Smoke(t *testing.T) {
	env := smallEnv(t)
	s := env.fig6([]int64{1, 2})
	s.values = []float64{2}
	s.algs = []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP}
	fig, err := env.runSweeps(s)
	if err != nil {
		t.Fatal(err)
	}
	cols := fig.CSVs[0].Columns
	if len(cols) != 4 {
		t.Fatalf("columns = %d", len(cols))
	}
	for i := 0; i < len(cols); i += 2 {
		mean, std := cols[i], cols[i+1]
		if len(mean.Values) != 1 || len(std.Values) != 1 {
			t.Fatalf("%s/%s cells = %d/%d", mean.Name, std.Name, len(mean.Values), len(std.Values))
		}
		if mean.Values[0] < 0 || mean.Values[0] > 1 {
			t.Errorf("%s = %v", mean.Name, mean.Values[0])
		}
		if std.Values[0] < 0 {
			t.Errorf("%s = %v", std.Name, std.Values[0])
		}
	}
	var b strings.Builder
	if err := fig.Tables[0].Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CEAR") || !strings.Contains(b.String(), "rate=2") {
		t.Errorf("table output:\n%s", b.String())
	}
	b.Reset()
	if err := fig.CSVs[0].Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "rate,CEAR_mean,CEAR_std,SSP_mean,SSP_std\n2,") {
		t.Errorf("csv:\n%s", b.String())
	}
}

func TestRunFig7Smoke(t *testing.T) {
	env := smallEnv(t)
	fig, err := env.RunFig7(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fig.CSVs {
		if len(c.X) != env.Provider.Horizon() || len(c.Columns) != 5 {
			t.Fatalf("%s: %d slots, %d columns", c.Name, len(c.X), len(c.Columns))
		}
		for _, col := range c.Columns {
			if len(col.Values) != env.Provider.Horizon() {
				t.Errorf("%s %s: series length %d", c.Name, col.Name, len(col.Values))
			}
		}
	}
	var b strings.Builder
	for _, table := range fig.Tables {
		if err := table.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(b.String(), "energy-depleted") || !strings.Contains(b.String(), "congested links") {
		t.Errorf("tables:\n%s", b.String())
	}
}

func TestRunFig8Smoke(t *testing.T) {
	env := smallEnv(t)
	fig, err := env.RunFig8(1)
	if err != nil {
		t.Fatal(err)
	}
	series := fig.CSVs[0].Columns[0]
	if series.Name != "CEAR" || len(series.Values) != env.Provider.Horizon() {
		t.Fatalf("series %s length %d", series.Name, len(series.Values))
	}
	var b strings.Builder
	if err := fig.Tables[0].Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cumulative") || !strings.Contains(fig.Text, "CEAR") {
		t.Errorf("table:\n%s\ntext:\n%s", b.String(), fig.Text)
	}
}

func TestRunFig9Smoke(t *testing.T) {
	env := smallEnv(t)
	sweeps := env.fig9([]int64{1})
	sweeps[0].values = []float64{1e6, 2.3e9}
	sweeps[1].values = []float64{1, 4}
	fig, err := env.runSweeps(sweeps...)
	if err != nil {
		t.Fatal(err)
	}
	valuation, f2 := fig.CSVs[0], fig.CSVs[1]
	if len(valuation.Columns[0].Values) != 2 || len(f2.Columns[0].Values) != 2 {
		t.Fatalf("sweep sizes %d/%d", len(valuation.Columns[0].Values), len(f2.Columns[0].Values))
	}
	// Higher valuation can only help welfare (requests priced out less).
	if mean := valuation.Columns[0].Values; mean[1]+1e-9 < mean[0] {
		t.Errorf("welfare decreased with valuation: %v -> %v", mean[0], mean[1])
	}
	var b strings.Builder
	for _, table := range fig.Tables {
		if err := table.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range fig.CSVs {
		if err := c.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"\nvaluation  welfare  std", "\nF2  welfare  std", "valuation,mean,std\n", "f2,mean,std\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, b.String())
		}
	}
}

func TestRunAblationsSmoke(t *testing.T) {
	env := smallEnv(t)
	res, err := env.RunAblations(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("variants = %d", len(res.Rows))
	}
	for name, row := range res.Rows {
		if row.WelfareRatio < 0 || row.WelfareRatio > 1 {
			t.Errorf("%s welfare = %v", name, row.WelfareRatio)
		}
	}
	// Only price-charging variants can have revenue.
	if res.Rows["CEAR-AA"].Revenue < 0 {
		t.Error("negative revenue")
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CEAR-NE") {
		t.Errorf("table:\n%s", b.String())
	}
}

func TestRunCompetitiveSmoke(t *testing.T) {
	env := smallEnv(t)
	res, err := env.RunCompetitive(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.OnlineAccepted == 0 {
		t.Fatal("online accepted nothing")
	}
	if res.TheoreticalBound < 35 || res.TheoreticalBound > 36 {
		t.Errorf("bound = %v, want ~35.6", res.TheoreticalBound)
	}
	// The empirical ratio must be far below the worst-case bound, and the
	// offline greedy (which sees everything) should not be beaten by more
	// than noise... it CAN be beaten since greedy is not optimal, so only
	// sanity-check positivity.
	if res.EmpiricalRatio <= 0 {
		t.Errorf("empirical ratio = %v", res.EmpiricalRatio)
	}
	if res.EmpiricalRatio > res.TheoreticalBound {
		t.Errorf("empirical ratio %v exceeds the theoretical bound %v", res.EmpiricalRatio, res.TheoreticalBound)
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empirical ratio") {
		t.Errorf("table:\n%s", b.String())
	}
}

func TestPaperConstants(t *testing.T) {
	params, err := PaperPricing()
	if err != nil {
		t.Fatal(err)
	}
	if params.Mu1 != 402 || params.Mu2 != 402 {
		t.Errorf("μ = %v/%v", params.Mu1, params.Mu2)
	}
	ecfg := PaperEnergyConfig()
	if ecfg.BatteryCapacityJ != 117000 || ecfg.PanelWatts != 20 {
		t.Errorf("energy config = %+v", ecfg)
	}
}

func TestRunAdaptiveComparisonSmoke(t *testing.T) {
	env := smallEnv(t)
	res, err := env.RunAdaptiveComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]float64{"static": res.StaticWelfare, "adaptive": res.AdaptiveWelfare} {
		if w < 0 || w > 1 {
			t.Errorf("%s welfare = %v", name, w)
		}
	}
	var b strings.Builder
	if err := res.Table().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CEAR-AD") {
		t.Errorf("table:\n%s", b.String())
	}
}
