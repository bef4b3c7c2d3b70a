// Package tsdb is the embedded durable telemetry store behind the
// monitoring engine: an append-only time-series engine that makes
// ingested samples survive restarts, keeps finished executions
// queryable at memory-mapped cost, and lets recognition re-run over
// historical jobs after the dictionary learns new labels.
//
// # Lifecycle: WAL → memtable → segment → mmap → Seal
//
// Every acknowledged mutation is first appended to a write-ahead log
// as a CRC-framed record (wal.go); sample runs arrive as columnar
// (metric, node) batches straight off the engine's zero-dictionary-lock
// ingest path, one job-level append (AppendRuns) and one job-runs
// record per job per ingest call, and fsyncs are batched with group
// commit — one fsync acknowledges however many appends preceded it. The same runs
// accumulate in a memtable of telemetry.Series (AppendRun), so the
// implicit-1 Hz-grid fast path and the stable sort are the ones the
// telemetry package defines.
//
// When a job finishes (is labelled) it becomes a stored execution:
// still served from the memtable at first, then flushed — together
// with other pending executions — into an immutable columnar segment
// file (segment.go) whose value and offset columns mirror
// telemetry.Series exactly, 8-byte aligned, with per-block CRC-32Cs and
// a JSON footer indexed by job/metric/node. After a flush the WAL is
// compacted down to the still-live jobs, bounding replay work.
//
// Reads memory-map segments and hand the mapped value columns to
// telemetry.NewSeriesFromColumns without copying a byte; Seal then
// builds its prefix sums over the mapped data, so stored executions
// answer window means bit-identically to the in-memory series they
// were flushed from — and datasets far larger than RAM stay
// queryable, paged in on demand.
//
// # Durability guarantees
//
//	— A sample batch is durable once Commit returns; Register, Finish
//	  and Drop are durable when they return.
//	— Crash recovery replays segments first, then the WAL. A torn or
//	  corrupt WAL tail is quarantined into wal.quarantine and the log
//	  truncated to the last intact record: exactly the acknowledged
//	  state is recovered, and torn bytes are preserved for inspection,
//	  never silently skipped.
//	— Segments appear atomically (temp file + fsync + rename + dir
//	  fsync). A file failing any structural or checksum test at open is
//	  renamed *.corrupt and skipped. A crash between segment rename and
//	  WAL compaction is resolved by sequence numbers: replayed finished
//	  jobs whose seq already sits in a segment are dropped, so no
//	  execution is ever duplicated or lost.
//
// The engine (efd/monitor, OpenStore/AttachStore) wires this store
// behind ingest, recovery and the stored-execution queries; cmd/efdd
// enables it with -data-dir; internal/ldms bulk-converts execution
// CSVs into segments via Store.IngestExecution.
package tsdb
