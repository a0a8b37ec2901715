GO ?= go

.PHONY: check build vet test race race-sharded race-serving lint lint-json bench-smoke bench-smoke-sharded bench-smoke-serving

# check is the full local gate, identical to CI: build, vet, race-enabled
# tests on both storage engines, and the repository linter. Any lint
# finding fails the build.
check: build vet race race-sharded lint

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-sharded re-runs the internal suites on the hash-partitioned storage
# engine. bench-smoke deliberately stays on the default engine so
# accesses/op stay comparable to testdata/bench_baseline.json.
race-sharded:
	IDIVM_ENGINE=sharded $(GO) test -race ./internal/...

# race-serving is the serving-layer tear-check at both GOMAXPROCS shapes
# CI uses, plus the storage pre-state reader/writer tests beneath it; the
# suites matrix both storage engines internally.
race-serving:
	$(GO) test -race -cpu 1,4 -run 'Serving|Snapshot|Dispatcher' ./internal/serve/ ./internal/rel ./internal/storage .

lint:
	$(GO) run ./cmd/ivmlint ./...

# lint-json keeps the text findings on stdout and additionally writes
# lint.json (the stable CI-artifact schema: file/line/col/analyzer/message
# per finding, [] when clean). Exit status matches `make lint`.
lint-json:
	$(GO) run ./cmd/ivmlint -o lint.json ./...

# bench-smoke mirrors CI's benchmark regression gate: a one-iteration run
# of the Figure 12a (d=200) and SPJ headline benchmarks plus the columnar
# kernel microbenchmarks, converted to BENCH.json (ns/op, allocs/op and
# accesses/op per row) and compared against testdata/bench_baseline.json
# on the deterministic accesses/op metric (>20% worse fails; ns/op and
# allocs/op appear as informational columns — gate on allocations with
# BENCHJSON_FLAGS='... -metric allocs/op').
# Regenerate the baseline after a deliberate cost change with:
#   make bench-smoke BENCHJSON_FLAGS='-o testdata/bench_baseline.json'
BENCHJSON_FLAGS ?= -o BENCH.json -baseline testdata/bench_baseline.json
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFig12a_DiffSize$$/^d=200$$' -benchtime=1x . | tee bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkSPJNonConditionalUpdate$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkScanHeavyRecompute$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkBatch(Filter|HashJoin)$$' -benchtime=1x . | tee -a bench.txt
	$(GO) test -run '^$$' -bench '^BenchmarkCascadeMaintenance$$' -benchtime=1x . | tee -a bench.txt
	$(GO) run ./cmd/benchjson $(BENCHJSON_FLAGS) bench.txt

# bench-smoke-sharded re-runs the same subset on the hash-partitioned
# engine with 4 intra-operator workers. Report-only: accesses/op are
# invariant under OpWorkers by construction (the race-sharded differential
# matrix proves it), but physical scan order shifts some apply-phase costs
# between engines, so this artifact is never gated against the mem-engine
# baseline. The interesting column is ns/op on the ScanHeavyRecompute
# seq-vs-op4 rows — which only separates on multi-core hosts.
bench-smoke-sharded:
	IDIVM_ENGINE=sharded:8 IDIVM_OP_WORKERS=4 $(GO) test -run '^$$' -bench '^BenchmarkFig12a_DiffSize$$/^d=200$$' -benchtime=1x . | tee bench_sharded.txt
	IDIVM_ENGINE=sharded:8 IDIVM_OP_WORKERS=4 $(GO) test -run '^$$' -bench '^BenchmarkSPJNonConditionalUpdate$$' -benchtime=1x . | tee -a bench_sharded.txt
	IDIVM_ENGINE=sharded:8 IDIVM_OP_WORKERS=4 $(GO) test -run '^$$' -bench '^BenchmarkScanHeavyRecompute$$' -benchtime=1x . | tee -a bench_sharded.txt
	$(GO) run ./cmd/benchjson -o BENCH_sharded.json bench_sharded.txt

# bench-smoke-serving mirrors CI's bench-serving lane: BenchmarkServing's
# replay lane reports accesses/op — the deterministic apply+maintenance
# cost of one 100-write group-commit batch — and gates against the same
# baseline; the concurrent lane's p50-ns/p99-ns/rounds-per-sec are
# wall-clock and land in BENCH_serving.json as informational columns only
# (benchjson refuses to gate on them).
BENCHJSON_SERVING_FLAGS ?= -o BENCH_serving.json -baseline testdata/bench_baseline.json
bench-smoke-serving:
	$(GO) test -run '^$$' -bench '^BenchmarkServing$$' -benchtime=2000x . | tee bench_serving.txt
	$(GO) run ./cmd/benchjson $(BENCHJSON_SERVING_FLAGS) bench_serving.txt
