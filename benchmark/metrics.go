package main

// metricDef names one reported number. BENCHMARK.json lists exactly
// these (a unit test holds the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Unused
	// for per-layer metrics.
	Bound float64
}

// endToEnd are the numbers a user of the system sees, reported by every
// workload of an untraced run. Bounds come from the A/A sets in
// aa_runs.json (README.md, "Bounds"): on the reference host every timing
// metric needs the contract's maximum, and the 95th-percentile latency
// could not be held even to that, so it is a loadgen diagnostic.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "welfare_ratio", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the single-layer numbers of a traced run; the prefix is
// the module that owns the layer. A metric that does not apply to a
// workload (server.* on a direct workload) or that the program no longer
// publishes is reported as 0 and listed on the run's "n/a" line.
var perLayer = []metricDef{
	{Name: "topology.new_environment_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.generate_us_per_req", Unit: "us", Better: "lower"},

	{Name: "loadgen.encode_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.decode_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lat_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lat_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lat_ms_pmax10", Unit: "ms", Better: "lower"},

	{Name: "nethttp.residual_us", Unit: "us", Better: "lower"},

	{Name: "server.ingress_parse_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.engine_admit_us", Unit: "us", Better: "lower"},
	{Name: "server.respond_us", Unit: "us", Better: "lower"},
	{Name: "server.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "server.queue_high_water", Unit: "count", Better: "lower"},
	{Name: "server.shed_count", Unit: "count", Better: "lower"},
	{Name: "server.new_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},

	{Name: "sim.engine_build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.admit_us", Unit: "us", Better: "lower"},
	{Name: "sim.admit_us_accepted", Unit: "us", Better: "lower"},
	{Name: "sim.admit_us_rejected", Unit: "us", Better: "lower"},
	{Name: "sim.admit_us_per_slot", Unit: "us", Better: "lower"},
	{Name: "sim.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "sim.wall_ms_per_slot", Unit: "ms", Better: "lower"},

	{Name: "core.slot_searches_per_req", Unit: "count", Better: "lower"},
	{Name: "core.other_us", Unit: "us", Better: "lower"},

	{Name: "netstate.search_self_us", Unit: "us", Better: "lower"},
	{Name: "netstate.commit_us", Unit: "us", Better: "lower"},
	{Name: "netstate.heap_pops_per_search", Unit: "count", Better: "lower"},
	{Name: "netstate.edge_relaxations_per_search", Unit: "count", Better: "lower"},
	{Name: "netstate.pruned_labels_per_req", Unit: "count", Better: "higher"},
	{Name: "netstate.trial_consumes_per_req", Unit: "count", Better: "lower"},
	{Name: "netstate.commits_per_req", Unit: "count", Better: "higher"},
	{Name: "netstate.rollbacks_per_req", Unit: "count", Better: "lower"},
	{Name: "netstate.link_reservations_per_accept", Unit: "count", Better: "lower"},
	{Name: "netstate.build_view_us", Unit: "us", Better: "lower"},
	{Name: "netstate.search_unit_us", Unit: "us", Better: "lower"},
	{Name: "netstate.search_congestion_us", Unit: "us", Better: "lower"},
	{Name: "netstate.link_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "netstate.txn_cycle_us", Unit: "us", Better: "lower"},

	{Name: "energy.pricing_us", Unit: "us", Better: "lower"},
	{Name: "energy.deficit_walks_per_search", Unit: "count", Better: "lower"},
	{Name: "energy.visit_deficit_us", Unit: "us", Better: "lower"},
	{Name: "energy.trial_consume_us", Unit: "us", Better: "lower"},

	{Name: "pricing.lut_lookups_per_search", Unit: "count", Better: "lower"},
	{Name: "pricing.unit_cost_ns", Unit: "ns", Better: "lower"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},

	{Name: "host.calib_ms_before", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ms_after", Unit: "ms", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
}
