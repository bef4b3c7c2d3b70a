package monitor

import (
	"errors"
	"time"
)

// Sentinel errors. Engine and Job methods wrap these, so callers (the
// HTTP adapter above all) dispatch with errors.Is and map each onto
// one status code.
var (
	// ErrUnknownJob reports an operation on a job the engine does not
	// track (never registered, already labelled, or closed).
	ErrUnknownJob = errors.New("monitor: unknown job")
	// ErrJobExists reports a registration for an ID that is already
	// live.
	ErrJobExists = errors.New("monitor: job already registered")
	// ErrTableFull reports a registration beyond Engine.MaxJobs.
	ErrTableFull = errors.New("monitor: job table full")
	// ErrNotComplete reports a label attempt before the job's
	// fingerprint window has closed.
	ErrNotComplete = errors.New("monitor: job has not covered the fingerprint window yet")
	// ErrInvalid reports malformed input: a bad job ID, a non-finite
	// sample, an out-of-range offset, an unparsable label.
	ErrInvalid = errors.New("monitor: invalid argument")
	// ErrNoStore reports a storage query on an engine with no durable
	// store attached.
	ErrNoStore = errors.New("monitor: no telemetry store attached")
	// ErrStore wraps failures of the durable store on the write path;
	// the job's in-memory state is unchanged unless documented
	// otherwise.
	ErrStore = errors.New("monitor: telemetry store")
	// ErrOverloaded reports an ingest request refused by the admission
	// gate (AcquireIngest): too many bytes or requests in flight. The
	// condition is transient — retry after backing off.
	ErrOverloaded = errors.New("monitor: ingest overloaded")
	// ErrReadOnly reports a write shed because the durable store's disk
	// is full: the engine keeps serving every read while a background
	// probe waits for space to free, then resumes durable writes. The
	// condition is transient — retry after backing off.
	ErrReadOnly = errors.New("monitor: store is read-only (disk full)")
)

// Sample is one telemetry point in wire form — the JSON shape the v1
// API and the efd/client SDK speak. Offsets travel as float seconds
// (the LDMS convention); the engine rounds them to the nanosecond
// grid on ingest.
type Sample struct {
	Metric  string  `json:"metric"`
	Node    int     `json:"node"`
	OffsetS float64 `json:"offset_s"`
	Value   float64 `json:"value"`
}

// Batch is one job's samples within a multi-job ingest request.
type Batch struct {
	JobID   string   `json:"job_id"`
	Samples []Sample `json:"samples"`
}

// Run is a columnar (metric, node) sample run — parallel offset/value
// columns, the engine's native ingest currency. The binary wire
// encoding (application/x-efd-runs) decodes straight into this shape.
type Run struct {
	Metric  string
	Node    int
	Offsets []time.Duration
	Values  []float64
}

// RunBatch is one job's runs within a columnar ingest request.
type RunBatch struct {
	JobID string
	Runs  []Run
}

// State is a recognition answer for one job — the GET /v1/jobs/{id}
// response body.
type State struct {
	JobID      string         `json:"job_id"`
	Complete   bool           `json:"complete"`
	Recognized bool           `json:"recognized"`
	Top        string         `json:"top"`
	Apps       []string       `json:"apps,omitempty"`
	Votes      map[string]int `json:"votes,omitempty"`
	Confidence float64        `json:"confidence"`
	Matched    int            `json:"matched"`
	Total      int            `json:"total"`
}

// Summary is one job's lightweight listing entry.
type Summary struct {
	JobID       string  `json:"job_id"`
	Nodes       int     `json:"nodes"`
	Complete    bool    `json:"complete"`
	Samples     int64   `json:"samples"`
	LastOffsetS float64 `json:"last_offset_s"`
}

// Listing is a paginated job listing — the GET /v1/jobs response body.
type Listing struct {
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Limit  int       `json:"limit"`
	Jobs   []Summary `json:"jobs"`
}

// DictionaryInfo is a dictionary statistics snapshot — the
// GET /v1/dictionary response body.
type DictionaryInfo struct {
	Keys       int      `json:"keys"`
	Exclusive  int      `json:"exclusive"`
	Collisions int      `json:"collisions"`
	Labels     int      `json:"labels"`
	Depth      int      `json:"depth"`
	Apps       []string `json:"apps"`
	LiveJobs   int      `json:"live_jobs"`
}

// Stats is the engine's operational counter snapshot — the
// GET /v1/metrics response body.
type Stats struct {
	LiveJobs        int64 `json:"live_jobs"`
	MaxJobs         int   `json:"max_jobs"`
	Shards          int   `json:"shards"`
	ShardOccupancy  []int `json:"shard_occupancy"`
	Registered      int64 `json:"registered_total"`
	Deleted         int64 `json:"deleted_total"`
	Learned         int64 `json:"learned_total"`
	SampleBatches   int64 `json:"sample_batches_total"`
	SamplesAccepted int64 `json:"samples_accepted_total"`
	BatchesRejected int64 `json:"batches_rejected_total"`
	Recognitions    int64 `json:"recognitions_total"`
	// Health is the engine's one-word health status — "healthy",
	// "degraded" (store failed, serving memory-only), or "readonly"
	// (the store's disk is full; writes are shed). GET /v1/health has
	// the full picture.
	Health string `json:"health"`
	// IngestShedTotal counts ingest requests refused by the admission
	// gate since start.
	IngestShedTotal int64 `json:"ingest_shed_total"`
	// Store carries the durable-store counters; nil without a store.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the durable-store section of Stats, mirroring the
// tsdb store's counters plus the engine's recovery totals.
type StoreStats struct {
	LiveJobs            int    `json:"live_jobs"`
	PendingJobs         int    `json:"pending_jobs"`
	Executions          int    `json:"executions"`
	Segments            int    `json:"segments"`
	WALBytes            int64  `json:"wal_bytes"`
	MmapBytes           int64  `json:"mmap_bytes"`
	AppendedRecords     int64  `json:"appended_records"`
	Commits             int64  `json:"commits"`
	Flushes             int64  `json:"flushes"`
	ReplayedRecords     int64  `json:"replayed_records"`
	QuarantinedWALBytes int64  `json:"quarantined_wal_bytes"`
	QuarantinedSegments int64  `json:"quarantined_segments"`
	LastFlushError      string `json:"last_flush_error,omitempty"`
	RecoveredJobs       int64  `json:"recovered_jobs"`
	Rerecognitions      int64  `json:"rerecognitions_total"`
	// RecoveryRetriedOps / RecoveryDurationS surface the last
	// recovery's fault-tolerance work (tsdb.RecoveryStats), unifying
	// GET /v1/metrics with the store facts GET /v1/health reports.
	// Duration is floor seconds, so healthy stores read a stable 0.
	RecoveryRetriedOps int64 `json:"recovery_retried_ops"`
	RecoveryDurationS  int64 `json:"recovery_duration_s"`
	// Disk mirrors the /v1/health disk section under the same presence
	// rule: shown when a low-space watermark is configured or the
	// store is in read-only mode.
	Disk *DiskHealth `json:"disk,omitempty"`
}

// ExecutionInfo describes one stored (finished) execution.
type ExecutionInfo struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	Nodes   int    `json:"nodes"`
	Seq     uint64 `json:"seq"`
	Samples int64  `json:"samples"`
	Stored  bool   `json:"stored"`
}

// SeriesData is one series of a telemetry dump. OffsetsS is omitted
// for implicit-1 Hz-grid series: offset i is exactly i seconds.
type SeriesData struct {
	Metric   string    `json:"metric"`
	Node     int       `json:"node"`
	Count    int       `json:"count"`
	OffsetsS []float64 `json:"offsets_s,omitempty"`
	Values   []float64 `json:"values"`
}

// SeriesDump is a job's accumulated telemetry — the
// GET /v1/jobs/{id}/series response body. Source is "live" (memtable
// snapshot of a running job) or "stored" (immutable flushed
// execution).
type SeriesDump struct {
	JobID  string       `json:"job_id"`
	Source string       `json:"source"`
	Series []SeriesData `json:"series"`
}
