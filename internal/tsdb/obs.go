package tsdb

import "repro/internal/obs"

// Instruments are the store's optional observability hooks
// (Options.Inst): pre-registered obs instruments the store observes
// into on its own operations. Every field is optional — a nil
// instrument records nothing, and an uninstrumented store (the zero
// value) takes no clock readings at all, so the WAL append hot path
// pays nothing unless metrics were enabled. The instruments'
// fast paths are alloc-free, keeping instrumented Append and
// AppendRuns at 0 allocs/op (pinned by
// TestAppendInstrumentedAllocFree).
type Instruments struct {
	// AppendSeconds times one job-level append (Store.AppendRuns, or
	// Store.Append for one run) — encode, CRC, and the buffered WAL
	// write of the job's records (no fsync; see CommitSeconds). The
	// engine makes one per job per ingest call.
	AppendSeconds *obs.Histogram
	// CommitSeconds times Store.Commit, the group-commit fsync batch.
	CommitSeconds *obs.Histogram
	// CommitRecords is the group-commit batch size: WAL records made
	// durable per fsync. Sample runs travel as one job-runs record per
	// job-level append (more only past walRunChunk samples), so this
	// counts job records, not runs. Skipped commits (already covered
	// by a previous fsync) record nothing.
	CommitRecords *obs.Histogram
	// FlushSeconds / FlushBytes time and size successful segment
	// flushes.
	FlushSeconds *obs.Histogram
	FlushBytes   *obs.Histogram
	// MmapReads counts stored-execution reads served from mapped
	// segment files.
	MmapReads *obs.Counter
}
