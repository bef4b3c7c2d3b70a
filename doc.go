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
// any worker count. Every evaluation protocol and ablation renders
// those indexes once per call and recognizes every outer fold's test
// rows through the same grid, reading the indexes through the fold's
// row lists, building no Dictionary or Recognizer
// (core.Trainer.Classify). The
// HTTP monitoring service (internal/server, cmd/efdd) shards its job
// table and serves concurrent ingest and recognition against a shared
// dictionary (core.SharedDictionary: parallel readers, exclusive
// online learning) with graceful shutdown and dictionary re-save.
//
// The telemetry substrate underneath all of it is columnar
// (internal/telemetry): series store separate offset and value
// columns, regular 1 Hz series keep their offsets implicit in the
// index, and a window mean scans the window into one double-double sum,
// rounded once and divided by the count (stats.WindowSum). The
// streaming recognizer keeps the same sum per window, so a live job fed
// in time order and its stored telemetry produce the same keys. The
// durable store's memtable holds the same telemetry.Series.
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
