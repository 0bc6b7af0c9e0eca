package obs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReportRoundTrip writes a populated report to disk, reads it back,
// and compares every section.
func TestReportRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("graph.dijkstra.heap_pops").Add(1234)
	reg.Counter("netstate.txn.commits").Add(56)
	reg.Gauge("sim.load").Set(0.5)
	reg.Histogram("sim.slot_seconds", []float64{0.001, 0.01, 0.1}).Observe(0.004)
	sp := reg.StartPhase("admission")
	sp.End()
	reg.Sampler(4).Series("slot.accepted").Record(0, 3)
	reg.TopK("sim.hotspots.src_rejected", 4, TopKSum).Add(42, 2)

	rep := NewReport("cearsim")
	rep.SetConfig("scale", "small")
	rep.SetConfig("algorithm", "CEAR")
	rep.SetConfig("seed", 101.0) // JSON numbers decode as float64
	rep.SetMetric("welfare_ratio", 0.8421)
	rep.SetMetric("rejected.no-path", 12)
	rep.Finish(reg)

	path := filepath.Join(t.TempDir(), "run.json")
	if err := WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if got.Version != ReportVersion || got.Tool != "cearsim" {
		t.Fatalf("header = %d/%q", got.Version, got.Tool)
	}
	if !reflect.DeepEqual(got.Config, rep.Config) {
		t.Fatalf("config round-trip:\n got %#v\nwant %#v", got.Config, rep.Config)
	}
	if !reflect.DeepEqual(got.Metrics, rep.Metrics) {
		t.Fatalf("metrics round-trip:\n got %#v\nwant %#v", got.Metrics, rep.Metrics)
	}
	if !reflect.DeepEqual(got.Observability, rep.Observability) {
		t.Fatalf("observability round-trip:\n got %#v\nwant %#v", got.Observability, rep.Observability)
	}
}

func TestReadReportRejectsWrongVersion(t *testing.T) {
	_, err := ReadReport(strings.NewReader(`{"version": 999, "tool": "x"}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version mismatch", err)
	}
}

func TestReadReportFileMissing(t *testing.T) {
	if _, err := ReadReportFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}
