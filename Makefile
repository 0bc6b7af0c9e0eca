# Development targets. `make check` is the pre-PR gate: vet, build,
# race-enabled unit tests, a one-iteration benchmark smoke pass, ten
# seconds of fuzzing per native fuzz target and the scenario
# record/replay smoke.

GO ?= go

.PHONY: check check-race build test vet fmt-check race bench-smoke fuzz-smoke bench-module bench-golden bench-pair report-smoke smoke-spaced trace-smoke scenario-smoke loc options prod-cover

check: fmt-check vet build race bench-smoke fuzz-smoke scenario-smoke
	@echo "check: all gates passed"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# Race-enabled unit tests, plus the root package's served-stream tests
# and the figure runners' job loop: TestServedAuditLogReplays drives the
# daemon's concurrent handlers, turn and audit sink end to end, and the
# runJobs tests its workers, ObsSink and LastObs.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -run '^(TestServed|TestObserveGivesDistinctRegistries|TestEnvironmentLastObs|TestRunJobsErrorPropagation|TestRunJobsSearchEachRunOnItsOwnScratch|TestParallelFiguresDeterministic)' .

# Full-module race gate, including the root-package integration tests
# (parallel figure runners over the shared provider).
check-race:
	$(GO) test -race ./...

# One iteration of every benchmark in the module: a bench that stops
# compiling or fails in any package fails here.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The counts ROADMAP item 4's line gate is read from: Go lines outside
# benchmark/ split into non-test and test, benchmark/'s own, and the
# number of commands.
loc:
	@echo "non-test  $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@echo "test      $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@echo "benchmark $$(find ./benchmark -name '*.go' | xargs cat | wc -l)"
	@echo "commands  $$(ls cmd | wc -l)"

# The settable options ROADMAP item 4's gate counts: one line per
# exported field of each exported *Config or Options struct outside
# benchmark/ and per flag of each command and subcommand, then the total
# (scripts/options.sh).
options:
	@./scripts/options.sh

# Production coverage: build every command and the benchmark with -cover,
# run a fixed small-scale tour of them and list each non-test function no
# run executed (scripts/prod_cover.sh). A report for deletion reviews,
# not a gate: exact fallbacks and oracles stay on the list.
prod-cover:
	./scripts/prod_cover.sh

# Every native fuzz target for ten seconds (`go test -fuzz` takes one
# target and one package per run). The seed corpora come from the property
# tests beside the targets; a find lands in the package's testdata/fuzz/
# and fails the gate. Coverage-guided minimisation of each new input would
# otherwise eat the ten seconds (its budget defaults to a minute), hence
# -fuzzminimizetime.
fuzz-smoke:
	$(GO) test ./internal/energy -run '^$$' -fuzz '^FuzzUnitPricesFrom$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/netstate -run '^$$' -fuzz '^FuzzFlatHeap$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/netstate -run '^$$' -fuzz '^FuzzLedgerUndo$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzBookBody$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzEachLine$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzFilterByGDP$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/topology -run '^$$' -fuzz '^FuzzTwoTierDecision$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzReplayLog$$' -fuzztime 10s -fuzzminimizetime 1s

# benchmark/ is a Go module of its own, so `go build ./... && go test
# ./...` never compiles it and an internal/ API break stays invisible
# until the acceptance driver runs. This builds it, runs every workload
# shape once at small scale, and runs its unit tests.
bench-module:
	bash benchmark/run.sh -smoke
	cd benchmark && $(GO) vet . && $(GO) test -race .

# Decision-digest gate: one short run of both direct workloads per seed;
# every run checks its decisions against benchmark/golden.json (pinned
# for seeds 1-10) and fails on any `check ... FAILED`.
BENCH_GOLDEN_SEEDS ?= 1 2 3 4 5 6 7 8 9 10
bench-golden:
	@for w in full_direct medium_direct_wide; do \
		for s in $(BENCH_GOLDEN_SEEDS); do \
			out="$$(bash benchmark/run.sh --workload $$w --seed $$s --seconds 1)"; status=$$?; \
			echo "$$out" | grep '^check' | sed "s/^/bench-golden: $$w seed $$s: /"; \
			if [ $$status -ne 0 ] || echo "$$out" | grep -q '^check .*FAILED' || \
				! echo "$$out" | grep -q '^check golden  *ok'; then \
				echo "bench-golden: $$w seed $$s failed (exit $$status)"; exit 1; \
			fi; \
		done; \
	done

# The paired protocol a timing claim is measured by: the working tree
# against BENCH_PAIR_REF, both sides alternately on every seed, through
# benchmark/run.sh --seconds 15 --trace 0; prints every run and, per
# metric, median [Q1, Q3], ratio, pairs won and the resolved/unresolved
# verdict (scripts/bench_pair.sh; TRACE=1 gives the per-layer table). All four workloads on ten seeds
# take about 25 minutes.
BENCH_PAIR_REF ?= HEAD~1
bench-pair:
	@for w in full_direct medium_direct_wide small_served_closed medium_served_open; do \
		./scripts/bench_pair.sh $(BENCH_PAIR_REF) $$w || exit 1; \
	done

# End-to-end serving smoke: build spaced + spaceload, run a short burst
# against a live daemon, assert accepts, find the hot-spot trackers in
# /metrics.json and render one `spacestat top -once` frame, and require a
# clean SIGTERM drain; then repeat against an
# arrival-driven clock (-clock-rate 0: the clock must follow spaceload's
# declared slots).
smoke-spaced:
	./scripts/smoke_spaced.sh

# End-to-end scenario smoke: validate the checked-in example specs,
# trace a spec-driven `spacebench run`, replay it, assert the two traces
# are byte-identical, then run the Erlang-B analytical twin (must
# PASS within tolerance).
scenario-smoke:
	./scripts/scenario_smoke.sh

# End-to-end tracing smoke: boot spaced with -trace-sample 1 and an
# audit log, fire spaceload, assert /debug/traces.json answers with
# records, the drained audit log is valid JSONL (spacestat trace -min 1)
# and replays to the same accepted count and revenue (spacebench run
# -replay), and the report's server.trace.* counters are live
# (spacestat diff gates).
trace-smoke:
	./scripts/trace_smoke.sh

# Produce a tiny-run report and diff it against itself: exercises the
# report pipeline end to end and must exit 0 (the CI smoke for the
# `spacestat diff` perf gate; the explicit gauge gate proves the differ
# reaches the gauges section). Also gates the routing fast path: the
# report must carry the fast-path counters, and the searches/reuses
# counts must be live (a zero means a regression silently fell back to
# the generic path or stopped reusing the scratch).
report-smoke:
	@set -e; r="$$(mktemp)"; trap 'rm -f "$$r"' EXIT; \
	$(GO) run ./cmd/spacebench run -scale small -report "$$r" >/dev/null; \
	$(GO) run ./cmd/spacestat diff -gate gauges.netstate.depleted_sats=0% "$$r" "$$r"; \
	grep -q '"graph.fastpath.pruned_labels"' "$$r" || \
		{ echo "report-smoke: graph.fastpath.pruned_labels missing from run report"; exit 1; }; \
	grep -Eq '"graph.fastpath.searches": *[1-9]' "$$r" || \
		{ echo "report-smoke: graph.fastpath.searches is zero or missing — fast path not live"; exit 1; }; \
	grep -Eq '"netstate.scratch.reuses": *[1-9]' "$$r" || \
		{ echo "report-smoke: netstate.scratch.reuses is zero or missing — scratch not reused"; exit 1; }
