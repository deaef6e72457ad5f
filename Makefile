# Developer entry points. `make check` is the full gate the serving
# subsystem is held to: vet, build, and the whole suite under the race
# detector (the scan server is aggressively concurrent). CI runs check,
# lint, fuzz (30s smoke on PRs, longer nightly) and bench-json.

GO ?= go
FUZZTIME ?= 30s
BENCHJSON ?= BENCH_PR10.json

# Perf-gate settings. The gated subset is the hot-path suite (the parallel
# data path with and without the sketch chain, the Table 1 binner cases,
# and each sketch block alone); the iteration budget and scheduler width are
# pinned so a base run and a head run on the same machine are comparable,
# and the 5 repeats are collapsed to a per-metric median by benchjson.
PERF_BENCH ?= BenchmarkParallelDataPathSketch|BenchmarkTable1Binner|BenchmarkBlockPushBatch
PERF_BENCHTIME ?= 2s
PERF_COUNT ?= 5
PERF_GOMAXPROCS ?= 4
PERF_OUT ?= perf_head.json
PERF_BASE ?= perf_base.json
PERF_HEAD ?= perf_head.json

.PHONY: check vet build test race fuzz bench bench-json bench-serve perf-bench perf-gate lint chaos-durable

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz passes over every decoder that faces attacker-controlled bytes.
# FUZZTIME=30s is the CI smoke setting; the nightly job raises it.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzHistogramUnmarshal -fuzztime=$(FUZZTIME) ./internal/hist/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/durable/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeWALRecord -fuzztime=$(FUZZTIME) ./internal/durable/

# chaos-durable is the crash-recovery chaos gate: the in-process prefix
# property (100 randomized kill points under disk-fault injection) plus the
# real kill -9 harness (child server process SIGKILLed mid-scan, restarted
# from disk, client resume must deliver a byte-identical stream). Widen with
# CHAOS_SEEDS / CRASH_SEEDS.
CHAOS_SEEDS ?= 100
CRASH_SEEDS ?= 5
chaos-durable:
	STREAMHIST_CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -run 'TestDurableChaos' ./internal/durable/ -v -timeout 20m
	STREAMHIST_CRASH_SEEDS=$(CRASH_SEEDS) $(GO) test -race -run 'TestCrash|TestServerRestart|TestServerNoDurability' ./internal/server/ -v -timeout 20m

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json captures the root-package benchmark suite (one bench per paper
# artifact plus the parallel data-path scaling group) and the served-scan
# benchmarks of internal/server (the loopback-TCP wire path, and what
# durability costs a scan) as a JSON trajectory point for CI artifacts.
bench-json:
	$(GO) test -bench=. -benchmem -run='^$$' -count=1 -timeout=60m . ./internal/server | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out $(BENCHJSON)

# bench-serve runs the served-scan benchmark (servebench/README.md) over all
# three workloads at the settings BENCHMARK.json declares, printing each
# workload's end-to-end metrics and the bulk-refresh / bulk-move ratio.
bench-serve:
	bash servebench/run.sh --workload all --seed 1 --seconds 30 --trace 0

# perf-bench runs the gated benchmark subset under pinned conditions and
# writes one median-collapsed benchjson artifact. Run it twice — once on the
# merge base, once on the head, same machine — then `make perf-gate`.
perf-bench:
	GOMAXPROCS=$(PERF_GOMAXPROCS) $(GO) test -run='^$$' -bench='$(PERF_BENCH)' \
		-benchmem -benchtime=$(PERF_BENCHTIME) -count=$(PERF_COUNT) -timeout=30m . ./internal/sketch \
		| tee perf.out
	$(GO) run ./cmd/benchjson -in perf.out -out $(PERF_OUT)

# perf-gate fails on >10% same-runner throughput drop or >5% allocs/op
# growth between two perf-bench artifacts (allocs are machine-independent;
# the throughput gate is only sound because CI produces both files in one
# job on one runner).
perf-gate:
	$(GO) run ./cmd/benchdiff -base $(PERF_BASE) -head $(PERF_HEAD) \
		-gate-throughput -max-throughput-drop 10 -max-allocs-growth 5

# lint fails on any file gofmt would rewrite, then runs staticcheck when it
# is installed (CI installs it; locally it is optional because the repo
# builds with the stdlib toolchain alone).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
