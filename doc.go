// Package repro is the root of the EFD reproduction module. The public
// library API lives in package repro/efd; the benchmark harness in
// bench_test.go regenerates every table and figure of the paper, and
// cmd/experiments prints them at full scale (its usage lists every
// table, figure and ablation).
//
// The recognition hot path is allocation-free on a warmed dictionary
// (interned integer keys, dense vote accumulators, reused scratch — see
// the internal/core package comment), and training scores its
// cross-validation grid from one key index per candidate rounding
// depth, on a worker pool over depths, with byte-identical results at
// any worker count. The HTTP monitoring service (internal/server,
// cmd/efdd) shards its job table and serves concurrent ingest and
// recognition against a shared dictionary (core.SharedDictionary:
// parallel readers, exclusive online learning) with graceful shutdown
// and dictionary re-save.
//
// The telemetry substrate underneath all of it is columnar
// (internal/telemetry): series store separate offset and value
// columns, regular 1 Hz series keep their offsets implicit in the
// index, and Seal builds a double-double prefix sum of the values (Σx)
// that answers any window's mean in O(1)/O(log n) regardless of window
// length — Summarize, metric sweeps and aligned recognition amortize
// to one pass per series. The durable store's memtable holds the same
// telemetry.Series.
// LDMS CSV ingest is byte-oriented (bufio line walking, in-place field
// splits, zero-copy float parsing, bulk columnar series construction),
// with multi-node files parsed concurrently on the internal/par pools,
// and the server's batch ingest feeds streams in columnar
// (metric, node) runs. Run `make bench` for the benchmark suite with
// allocation reporting (including the end-to-end ingest → summarize →
// fit pipeline and the ingest-reader comparison against the retained
// encoding/csv baseline), `make bench-compare` to benchstat two
// revisions, and `make check` for build + vet + tests under the race
// detector.
package repro
