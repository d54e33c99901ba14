GO ?= go

.PHONY: check check-race build vet lint test race bench bench-smoke bench-serving bench-e2e

# check is the CI entry point: everything must pass before merge.
check: build vet lint race

build:
	$(GO) build ./...

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

# check-race is the full suite under the race detector — including the
# simulation-backed experiment tests the -short gate skips. Too slow for the
# inner `check` loop; CI runs it as its own job on every PR.
check-race:
	$(GO) test -race -timeout 60m ./...

# bench runs the subsystem micro-benchmarks (see the BENCH_*.json files).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 2s ./internal/buildgraph/ ./internal/buildsys/ ./internal/conflict/ ./internal/planner/ ./internal/sched/ ./internal/shard/ ./internal/arbiter/ ./internal/repo/ ./internal/store/ ./internal/api/

# bench-serving measures the production serving path (BENCH_serving.json):
# handler alloc counts, journal group-commit and replay, the layered-snapshot
# commit cost, then the full two-phase load test over localhost HTTP
# (sustained ≥20k submissions/min with P99 targets, plus overload shedding).
bench-serving:
	$(GO) test -run '^$$' -bench . -benchtime 2s -benchmem ./internal/api/ ./internal/store/ ./internal/repo/
	$(GO) run ./cmd/sqsim -exp loadtest -full -metrics

# bench-smoke compiles and runs every benchmark in the repo exactly once so
# benchmarks cannot bitrot; CI runs it on every push. The root-level paper
# figure benchmarks take ~8 min even at 1x, so the per-package timeout is
# raised above go test's 10m default for slow CI runners.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 30m ./...

# bench-e2e runs the repository's end-to-end benchmark (bench/README.md,
# BENCHMARK.json) once per workload, the way the driver does: fixed work,
# oracle-checked, nine end-to-end metrics each. BENCH_ARGS adds e.g.
# `--trace 1` for the per-layer table or `--seed 3`.
bench-e2e:
	for w in serve_mix window_deep build_bound sim_replay; do \
		bash bench/run.sh --workload $$w $(BENCH_ARGS) || exit 1; \
	done
