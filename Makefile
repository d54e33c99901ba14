GO ?= go

.PHONY: check check-race build fmt vet lint test race race-graph race-wake fuzz examples bench bench-smoke bench-e2e

# check is the CI entry point: everything must pass before merge.
check: build fmt vet lint race race-wake fuzz examples

build:
	$(GO) build ./...

# fmt fails on any tracked Go file that gofmt would rewrite. The lint
# fixtures under internal/lint/testdata/ are left as written on purpose.
fmt:
	@out=$$(git ls-files -- '*.go' ':!:internal/lint/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the project's own static-analysis suite (cmd/mglint): determinism
# and concurrency invariants that go vet does not know about.
lint:
	$(GO) run ./cmd/mglint ./...

test:
	$(GO) test ./...

# race uses -short: the paper-scale grid sweeps (Fig. 11-13) already run in
# the plain `test` target and are impractically slow under the race detector.
race:
	$(GO) test -race -short ./...

# examples builds and runs every program under examples/ — each drives a live
# Service end to end — and fails on the first non-zero exit (~2 s of runs).
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# check-race is the full suite under the race detector — including the
# simulation-backed experiment tests the -short gate skips. Too slow for the
# inner `check` loop; CI runs it as its own job on every PR.
check-race:
	$(GO) test -race -timeout 60m ./...

# race-graph repeats the conflict-graph sharing tests under the race
# detector: adjacency rows are shared between the analyzer's memo, the clones
# it hands out and the Induced views taken from them (~40 s on 2 cores).
race-graph:
	$(GO) test -race -count=10 -run '^(TestHandedOutGraphNeverChanges|TestCloneSharesRowsCopyOnWrite|TestInducedMatchesPairWalk)$$' ./internal/conflict/

# race-wake repeats the event-driven loop's wake tests under the race
# detector. The loop has no poll, so a lost wakeup — a submission, a build
# end, an arming, a deadline or a decision nobody acts on — leaves a change
# pending and fails the run; an idle service must not tick at all. It also
# repeats the publisher's tests: a decision event implies a durable record,
# readers never publish, and each change gets one decision event (the last,
# a 1 024-change load, only 3 times; ~35 s on 2 cores once the race build is
# cached).
race-wake:
	$(GO) test -race -count=20 -run '^(TestBuildEndWakesEngine|TestWakeStressNoLostWakeup|TestIdleSubmitDecidesWithoutPoll|TestIdleEngineDoesNotTick|TestSchedAgingWakesIdleEngine|TestSpeculativeOnlyEngineStaysLive|TestSpeculativeMergeFailureStaysLive|TestWakePokedAfterDone|TestWakeOnDoneArmsLate|TestDecisionEventImpliesDurable|TestReadersDoNotPublish)$$' ./internal/core/ ./internal/buildsys/
	$(GO) test -race -count=3 -run '^TestOneDecisionEventPerChange$$' ./internal/shard/

# fuzz boots a service from arbitrary journal and snapshot bytes for 10 s,
# starting from the checked-in corpus of a real journal: a boot returns a
# service or an error and never panics. Minimizing a multi-KB journal at the
# default budget would eat the whole run, so each attempt is capped.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzOpenRecovered$$' -fuzztime 10s -fuzzminimizetime 50x -parallel 2 ./internal/core/

# bench runs the subsystem micro-benchmarks. They are for measuring while you
# work; the numbers of record come from bench-e2e.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 2s ./internal/buildgraph/ ./internal/buildsys/ ./internal/conflict/ ./internal/planner/ ./internal/sched/ ./internal/shard/ ./internal/arbiter/ ./internal/repo/ ./internal/store/ ./internal/api/ ./internal/speculation/ ./internal/sim/ ./internal/strategies/

# bench-smoke compiles and runs every benchmark in the repo exactly once so
# benchmarks cannot bitrot; CI runs it on every push (~16 s on 2 cores).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-e2e runs the repository's end-to-end benchmark (bench/README.md,
# BENCHMARK.json) once per workload, the way the driver does: fixed work,
# oracle-checked, nine end-to-end metrics each. BENCH_ARGS adds e.g.
# `--trace 1` for the per-layer table or `--seed 3`.
bench-e2e:
	for w in serve_mix window_deep build_bound sim_replay; do \
		bash bench/run.sh --workload $$w $(BENCH_ARGS) || exit 1; \
	done
