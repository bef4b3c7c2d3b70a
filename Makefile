# Build / verification entry points.
#
#   make check     - tier-1 gate: build everything, vet, efdvet lint,
#                    gofmt -l, run all tests under the race detector
#                    (the server is concurrent; plain `go test` would
#                    miss data races). Run `make fuzz-short` alongside before
#                    merging storage or codec changes — it exercises
#                    the on-disk decoders the race tests cannot reach
#                    with adversarial bytes.
#   make fmt-check - fail if any file needs gofmt (the new public
#                    packages efd/monitor and efd/client are API
#                    surface; formatting drift is a review smell)
#   make test      - build + tests only (the original tier-1 command)
#   make test-race - build + tests under -race
#   make fuzz-short - bounded fuzz pass (FUZZTIME per target, default
#                    10s) over the tsdb WAL/segment decoders, the LDMS
#                    CSV reader and the binary ingest body decoder:
#                    every parser that consumes bytes a crash, a
#                    rotted disk or the network may have produced;
#                    plus the rounded-key kernel against its reference
#                    composition, over arbitrary float64 bits and depths
#   make chaos-short - seeded fault-injection chaos pass (CHAOSTIME
#                    wall-clock per test, default 2s) over the tsdb
#                    store and the monitor engine, with a fresh seed
#                    each run; every failure message carries its
#                    CHAOS_SEED, so re-running with that seed exported
#                    reproduces the schedule exactly
#   make bench     - benchmark smoke run with allocation reporting; also
#                    writes machine-readable results to BENCH_<rev>.json
#                    plus the raw text to BENCH_<rev>.txt
#                    so per-PR benchmark trajectories can accumulate
#                    (includes the server throughput pair at -cpu 8);
#                    afterwards scrapes /metrics from an instrumented
#                    server under a representative workload and folds
#                    the latency-histogram families into the JSON
#                    (raw exposition: BENCH_<rev>.metrics.txt)
#   make obs-golden - the Prometheus exposition golden alone (also part
#                    of check): /metrics text must stay byte-stable
#   make bench-compare - benchstat (or a plain-awk fallback) over the
#                    two most recent BENCH_<rev>.txt files
#   make vet       - static analysis only (the stock go vet pass)
#   make lint      - the repo's own analyzers: efdvet (internal/
#                    analysis, documented in LINTS.md) enforcing the
#                    vfs seam, the off-lock group-commit rule, the
#                    transitive hot-path allocation contract (call-
#                    graph propagation from //efd:hotpath roots),
#                    whole-module atomic-field discipline, the locked
#                    public API surface, errors.Is on sentinels, and
#                    no process exits in libraries; the driver prints
#                    the call-graph build cost to stderr so analysis
#                    regressions show in CI logs; exit 2 means the
#                    tree failed to typecheck and the analyzers
#                    never ran
#   make api-golden - regenerate the locked public-API goldens under
#                    internal/analysis/testdata/api after an intended
#                    API change (apilock fails make lint until the
#                    new surface is committed)

GO ?= go
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo worktree)
FUZZTIME ?= 10s
CHAOSTIME ?= 2s

.PHONY: check test test-race vet lint api-golden fmt-check bench bench-compare fuzz-short chaos-short obs-golden

check: test-race vet lint fmt-check chaos-short obs-golden

# The Prometheus exposition is operator-facing API: scrapers parse it.
# The golden pins it byte-for-byte (family ordering, label sorting,
# histogram cumulative buckets, float formatting); -count=1 defeats
# the cache so the gate always re-reads the golden file.
obs-golden:
	$(GO) test -count=1 -run '^TestExpositionGolden$$' ./internal/obs

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) build ./... && $(GO) test ./...

test-race:
	$(GO) build ./... && $(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/efdvet ./...

# An intended API change is a two-step commit: regenerate the goldens,
# review the diff of the rendered surface alongside the code change.
api-golden:
	$(GO) run ./cmd/efdvet -api-golden

# Go's fuzzer takes one -fuzz pattern per invocation, so each target
# gets its own bounded run; seed corpora make even a short run cover
# the interesting frame/footer shapes.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentOpen$$' -fuzztime $(FUZZTIME) ./internal/tsdb
	$(GO) test -run '^$$' -fuzz '^FuzzReadNodeCSV$$' -fuzztime $(FUZZTIME) ./internal/ldms
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryDecode$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzAppendRoundedKey$$' -fuzztime $(FUZZTIME) ./internal/stats

# -count=1 defeats the test cache: each chaos run draws a fresh seed
# from the clock, so successive runs explore different schedules. A
# failure prints CHAOS_SEED=...; export it to replay that schedule.
chaos-short:
	CHAOS_TIME=$(CHAOSTIME) $(GO) test -race -count=1 -run 'Chaos' ./internal/tsdb ./efd/monitor

bench:
	./scripts/bench.sh "BENCH_$(REV).json"

bench-compare:
	./scripts/bench_compare.sh
