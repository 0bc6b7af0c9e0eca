package spacebooking

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spacebooking/internal/core"
	"spacebooking/internal/energy"
	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/orbit"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// setUpSlackBytes is what set-up may allocate beyond the structures
// TestSetUpAllocatesWhatItStores accounts for: constant-size tables (the
// pricing LUT is 136 KiB), per-worker scratch, build-time copies of the
// satellite list and adjacency. It is well under what either regression
// the test guards against adds at the medium preset: a horizon × satellites
// position table (1.3 MB) or per-battery input vectors (0.9 MB).
const setUpSlackBytes = 256 << 10

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSetUpAllocatesWhatItStores is a memory guard on set-up at the
// medium preset. topology.NewProvider (with the pairs' endpoints frozen in
// its pass) and sim.NewEngine may allocate what their types keep plus
// setUpSlackBytes, no more. The provider keeps per slot a frame and a row
// of sunlit flags, per satellite its orbit, propagator and ISL adjacency,
// per site its position, and per frozen endpoint and slot one visibility
// list; the engine keeps one horizon-long ledger array (a signed cell per
// slot) and a Battery per satellite, and a few horizon-long rows. A
// returning position table, throwaway per-battery vectors or a second
// ledger array (≈ 442 KB here) fail here, not only in the benchmark's
// mem_peak_mb.
func TestSetUpAllocatesWhatItStores(t *testing.T) {
	defaults, err := scalePreset(ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	allSites, err := grid.TriangularSites(4)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := grid.FilterByGDP(allSites, defaults.sites)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := selectCoveredPairs(defaults.topo.Walker.InclinationDeg, sites, defaults.pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var eps []topology.Endpoint
	for _, p := range pairs {
		eps = append(eps, p.Src, p.Dst)
	}

	// Two workers, so the per-worker scratch does not scale with the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var prov *topology.Provider
	got := allocated(func() { prov, err = topology.NewProvider(defaults.topo, sites, nil, eps...) })
	if err != nil {
		t.Fatal(err)
	}

	const header, word = unsafe.Sizeof([]int(nil)), unsafe.Sizeof(0)
	h, n := uintptr(prov.Horizon()), uintptr(prov.NumSats())
	frame := unsafe.Sizeof(time.Time{}) + unsafe.Sizeof(geo.Rotation{})
	csr := prov.ISLCSR()
	stored := h*(frame+header+n) +
		n*(unsafe.Sizeof(orbit.Satellite{})+unsafe.Sizeof(orbit.Propagator{})+header) +
		uintptr(csr.NumEdges())*(word+4) + uintptr(len(csr.Offsets))*4 +
		uintptr(len(sites))*(unsafe.Sizeof(grid.Site{})+unsafe.Sizeof(geo.Vec3{})+header)
	frozen := map[topology.Endpoint]bool{}
	for _, e := range eps {
		if frozen[e] {
			continue
		}
		frozen[e] = true
		stored += h * header
		for slot := 0; slot < prov.Horizon(); slot++ {
			vis, err := prov.VisibleSats(e, slot)
			if err != nil {
				t.Fatal(err)
			}
			stored += uintptr(len(vis)) * word
		}
	}
	t.Logf("NewProvider: %d B allocated, %d B stored", got, stored)
	if got > uint64(stored)+setUpSlackBytes {
		t.Errorf("NewProvider allocated %d B at the medium preset; it stores %d B, slack %d B", got, stored, setUpSlackBytes)
	}

	env := &Environment{Provider: prov, Pairs: pairs, valuation: defaults.valuation}
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, env.WorkloadConfig(defaults.rate, 1))
	if err != nil {
		t.Fatal(err)
	}
	got = allocated(func() { _, err = sim.NewEngine(prov, rc) })
	if err != nil {
		t.Fatal(err)
	}
	// Per satellite a Battery, its pointer and its ledger cells; per slot
	// the state's link-ledger row headers and the engine's welfare rows.
	stored = n*(unsafe.Sizeof(energy.Battery{})+word+h*8) + h*(header+word+2*8)
	t.Logf("NewEngine: %d B allocated, %d B stored", got, stored)
	if got > uint64(stored)+setUpSlackBytes {
		t.Errorf("NewEngine allocated %d B at the medium preset; it stores %d B, slack %d B", got, stored, setUpSlackBytes)
	}
}

// TestUnitTablesHoldTheirWindows is the post-run memory guard on CEAR's
// unit-price tables. After a run at the medium preset, each table holds
// an array sized to the widest window it has priced over — from the slot
// searched to the first slot past its battery's last deficit — rounded up
// to a sixth of the horizon, not one slot per horizon slot. (At the small
// preset deficits outlast its one-orbit horizon, and the windows come too
// close to it to tell.) Tables that go back to horizon-long arrays fail
// here.
func TestUnitTablesHoldTheirWindows(t *testing.T) {
	env, err := NewEnvironment(EnvConfig{Scale: ScaleMedium})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := env.RunConfig(sim.AlgCEAR, env.WorkloadConfig(env.DefaultArrivalRate(), 1))
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(env.Provider, rc.Energy, false)
	if err != nil {
		t.Fatal(err)
	}
	cear, err := core.New(state, core.Options{Pricing: rc.Pricing})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(rc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, req := range reqs {
		d, err := cear.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	tables, widest, held := cear.UnitTableSlots()
	h := env.Provider.Horizon()
	t.Logf("%d requests, %d accepted: %d tables hold %d slots for windows of at most %d; horizon-long tables would hold %d",
		len(reqs), accepted, tables, held, widest, tables*h)
	if tables == 0 || accepted == 0 {
		t.Fatal("no table was filled: the guard is vacuous")
	}
	if slack := tables * (h / 6); held < widest || held > widest+slack || held >= tables*h {
		t.Fatalf("%d tables hold %d slots for windows of at most %d (rounding slack %d, horizon-long %d)",
			tables, held, widest, slack, tables*h)
	}
}
