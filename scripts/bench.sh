#!/bin/sh
# Runs the benchmark suite once with allocation reporting and converts
# the standard `go test -bench` output into a JSON array, so successive
# runs (one BENCH_<rev>.json per revision) form a perf trajectory.
# The raw `go test -bench` text is kept alongside as BENCH_<rev>.txt,
# which is the input format benchstat consumes (see `make
# bench-compare`). The suite includes the PR 3 data-plane benchmarks
# (BenchmarkPipelineEndToEnd, BenchmarkWindowMeanNarrow,
# BenchmarkLDMSIngest{,StdCSV}, BenchmarkSeriesSort) and the PR 4
# durable-store benchmarks (BenchmarkTSDBWALAppend, BenchmarkTSDBCommit
# — the only one timing real fsyncs — BenchmarkTSDBSegmentFlush, which
# lands each execution through the store's WAL path untimed and times
# only the flush, and BenchmarkTSDBMmapRead) and the PR 5 client-SDK
# ingest-encoding pair
# (BenchmarkClientIngestJSON vs BenchmarkClientIngestBinary: the same
# columnar batch end-to-end through a live HTTP server as row-form
# JSON versus application/x-efd-runs wire frames; the binary side must
# hold >=2x fewer allocs/op, pinned by TestClientIngestAllocRatio)
# since -bench=. matches them like every other root benchmark.
#
# After the bench run the PR 9 observability plane is scraped:
# TestMetricsSnapshot (root package, METRICS_OUT-gated) drives a
# representative workload through a fully instrumented storage-mode
# server and dumps GET /metrics; the key latency histograms
# (_sum/_count of the http/engine/tsdb families) land in the JSON
# under "metrics", next to the benchmark numbers, so operation-latency
# distributions travel with the perf trajectory. The raw exposition is
# kept as BENCH_<rev>.metrics.txt.
#
# The PR 10 interprocedural efdvet engine added a third signal: the
# wall-clock of a full `efdvet ./...` pass (prebuilt binary, compile
# time excluded) lands under "efdvet" in the JSON, so lint-cost
# regressions accumulate revision-over-revision like everything else.
#
# Usage: scripts/bench.sh [out.json]
set -eu

out="${1:-BENCH_local.json}"
raw="${out%.json}.txt"
mraw="${out%.json}.metrics.txt"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -bench=. -benchmem -count=1 -run '^$' . | tee "$tmp"

# The server throughput pair again at GOMAXPROCS=8, so the sharded vs.
# single-mutex scaling comparison lands in the trajectory regardless of
# the host's default GOMAXPROCS (benchmark names carry a -8 suffix).
# Skipped when the default is already 8 — the first pass produced the
# same names and a rerun would duplicate entries in the JSON.
if [ "${GOMAXPROCS:-$(nproc 2>/dev/null || echo 0)}" -ne 8 ]; then
    go test -bench='^BenchmarkServerThroughput' -benchmem -count=1 -cpu 8 -run '^$' . | tee -a "$tmp"
fi

# Post-bench metrics scrape (see header). Failure here is a real
# regression in the observability plane, not a bench flake: set -eu
# lets it fail the run.
METRICS_OUT="$mraw" go test -run '^TestMetricsSnapshot$' -count=1 .

# efdvet wall-clock over ./... (PR 10): the interprocedural engine
# made lint cost a perf surface of its own, so it rides the same
# per-revision trajectory as the benchmarks. A prebuilt binary keeps
# `go run` compile time out of the number; findings (nonzero exit)
# must not abort the bench run, so the exit code is swallowed — lint
# verdicts belong to `make lint`, only the cost is measured here.
vetbin="$(mktemp)"
go build -o "$vetbin" ./cmd/efdvet
vet_start=$(date +%s%N)
"$vetbin" ./... >/dev/null 2>&1 || true
vet_end=$(date +%s%N)
rm -f "$vetbin"
efdvet_ms=$(( (vet_end - vet_start) / 1000000 ))
echo "efdvet ./... took ${efdvet_ms}ms"

# The JSON output: the benchmark array plus the scraped histogram
# families ({name, count, sum_seconds-or-units} per histogram).
{
    echo '{'
    echo '"benchmarks":'
    awk '
    BEGIN { print "[" }
    /^Benchmark/ {
        name = $1; iters = $2; ns = $3
        bytes = "null"; allocs = "null"
        for (i = 4; i <= NF; i++) {
            if ($i == "B/op")      bytes  = $(i - 1)
            if ($i == "allocs/op") allocs = $(i - 1)
        }
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            name, iters, ns, bytes, allocs
    }
    END { if (n) printf "\n"; print "]," }
    ' "$tmp"
    printf '"efdvet": {"wall_ms": %d},\n' "$efdvet_ms"
    echo '"metrics":'
    awk '
    # Collect every histogram: _sum and _count lines of series without
    # labels (the bench workload leaves route-labelled HTTP series too;
    # label-free engine/tsdb families are the trajectory signal, and
    # labelled ones aggregate by stripping the label set).
    /_sum(\{[^}]*\})? / {
        name = $1; sub(/_sum.*/, "", name)
        sum[name] += $2; next
    }
    /_count(\{[^}]*\})? / {
        name = $1; sub(/_count.*/, "", name)
        cnt[name] += $2; seen[name] = 1; next
    }
    END {
        print "["
        n = 0
        for (name in seen) ordered[n++] = name
        # insertion sort: stable JSON across runs without gawk asort
        for (i = 1; i < n; i++) {
            v = ordered[i]
            for (j = i - 1; j >= 0 && ordered[j] > v; j--) ordered[j+1] = ordered[j]
            ordered[j+1] = v
        }
        for (i = 0; i < n; i++) {
            name = ordered[i]
            printf "  {\"name\": \"%s\", \"count\": %d, \"sum\": %g}%s\n", \
                name, cnt[name], sum[name], (i < n - 1) ? "," : ""
        }
        print "]"
    }
    ' "$mraw"
    echo '}'
} > "$out"

cp "$tmp" "$raw"
echo "wrote $out, $raw, and $mraw"
