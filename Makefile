# Development targets. `make check` is the pre-PR gate: vet, build,
# race-enabled unit tests, a one-iteration benchmark smoke pass, and ten
# seconds of fuzzing per native fuzz target.

GO ?= go

.PHONY: check check-race build test vet fmt-check race bench-smoke fuzz-smoke bench-module bench-golden bench-pair report-smoke smoke-spaced trace-smoke scenario-smoke loc

check: fmt-check vet build race bench-smoke fuzz-smoke
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

race:
	$(GO) test -race ./internal/...

# Full-module race gate, including the root-package integration tests
# (parallel figure runners over the shared provider).
check-race:
	$(GO) test -race ./...

# One iteration of every benchmark in the module, as CI's bench job runs
# them: a bench that stops compiling or fails in any package fails here.
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

# Every native fuzz target for ten seconds (`go test -fuzz` takes one
# target and one package per run). The seed corpora come from the property
# tests beside the targets; a find lands in the package's testdata/fuzz/
# and fails the gate. Coverage-guided minimisation of each new input would
# otherwise eat the ten seconds (its budget defaults to a minute), hence
# -fuzzminimizetime.
fuzz-smoke:
	$(GO) test ./internal/energy -run '^$$' -fuzz '^FuzzUnitPricesFrom$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/netstate -run '^$$' -fuzz '^FuzzFlatHeap$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/orbit -run '^$$' -fuzz '^FuzzParseTLE$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzBookBody$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzEachLine$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/grid -run '^$$' -fuzz '^FuzzFilterByGDP$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/topology -run '^$$' -fuzz '^FuzzTwoTierDecision$$' -fuzztime 10s -fuzzminimizetime 1s

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
# record a spec-driven `spacebench run`, replay it, assert the two traces
# are byte-identical, then run the Erlang-B analytical twin (must
# PASS within tolerance).
scenario-smoke:
	./scripts/scenario_smoke.sh

# End-to-end tracing smoke: boot spaced with -trace-sample 1 and an
# audit log, fire spaceload, assert /debug/traces.json answers with
# records, the drained audit log is valid JSONL (spacestat audit), and
# the report's server.trace.* counters are live (spacestat diff gates).
trace-smoke:
	./scripts/trace_smoke.sh

# Produce a tiny-run report and diff it against itself: exercises the
# report pipeline end to end and must exit 0 (the CI smoke for the
# `spacestat diff` perf gate). Also gates the routing fast path: the
# report must carry the fast-path counters, and the searches/reuses
# counts must be live (a zero means a regression silently fell back to
# the generic path or stopped reusing the scratch).
report-smoke:
	$(GO) run ./cmd/spacebench run -scale small -report /tmp/report-smoke.json >/dev/null
	$(GO) run ./cmd/spacestat diff /tmp/report-smoke.json /tmp/report-smoke.json
	@grep -q '"graph.fastpath.pruned_labels"' /tmp/report-smoke.json || \
		{ echo "report-smoke: graph.fastpath.pruned_labels missing from run report"; exit 1; }
	@grep -Eq '"graph.fastpath.searches": *[1-9]' /tmp/report-smoke.json || \
		{ echo "report-smoke: graph.fastpath.searches is zero or missing — fast path not live"; exit 1; }
	@grep -Eq '"netstate.scratch.reuses": *[1-9]' /tmp/report-smoke.json || \
		{ echo "report-smoke: netstate.scratch.reuses is zero or missing — scratch not reused"; exit 1; }
	@rm -f /tmp/report-smoke.json
