// Package monitor is the embeddable always-on recognition engine: the
// HTTP-independent core of the efdd monitoring service, usable
// in-process by any Go program that wants to recognize live HPC jobs
// from streaming telemetry.
//
// An Engine wraps a shared fingerprint dictionary (concurrent
// recognition, exclusive online learning), a sharded table of live
// jobs, and — optionally — a durable telemetry store (OpenStore) that
// write-ahead logs ingest and turns labelled jobs into re-recognizable
// stored executions.
//
// # Lifecycle
//
// Register a job, feed its telemetry, poll recognition, then either
// label it (online learning: the execution's fingerprints join the
// dictionary) or close it:
//
//	eng := monitor.New(dict)
//	job, _ := eng.Register("job-42", 4)
//	job.Ingest(samples)             // or job.IngestRun(columnar runs)
//	state, _ := job.Result()        // answers two minutes in
//	job.Label("lammps", "X")        // or job.Close()
//
// Multi-job feeders (an LDMS aggregator fanning in a whole cluster)
// use the engine-level batch forms IngestBatches / IngestRuns, which
// lock each shard once per call and commit the durable store once for
// the whole batch.
//
// # Concurrency
//
// All methods are safe for concurrent use. Jobs live in NumShards
// shards selected by FNV-1a hash of the job ID, each with its own
// RWMutex, and every job carries its own mutex serializing its
// stream — ingest for job A proceeds in parallel with recognition of
// job B. Sample ingest takes no dictionary lock at all (it touches
// only the immutable fingerprint configuration), so ingest never
// stalls behind recognition or learning.
package monitor

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/efd"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/tsdb"
)

// NumShards is the number of independent job-table shards. Job IDs
// are assigned to shards by FNV-1a hash.
const NumShards = 64

// MaxJobIDLen bounds the byte length of a registered job ID.
const MaxJobIDLen = 256

// DefaultMaxJobs is the default bound on concurrently tracked jobs.
const DefaultMaxJobs = 4096

// Engine is the monitoring engine. It is safe for concurrent use; see
// the package comment for the locking architecture.
type Engine struct {
	dict *core.SharedDictionary

	// state is the store-mode ladder (see health.go): the mode, the
	// attached store, and the triggering error, one immutable snapshot
	// that New sets and only transition replaces. A store, when
	// attached (OpenStore/AttachStore), makes ingest durable: runs are
	// WAL-appended on the ingest path, one group-commit fsync
	// acknowledges each batch, and labelled jobs become stored,
	// re-recognizable executions. Without one the engine runs
	// in-memory. Every reader loads the snapshot once, so a request
	// racing CloseStore or a probe reopen sees one consistent state.
	state atomic.Pointer[storeState]
	// storeReadMu excludes readers of mapped segment data (Series,
	// Executions, RecognizeStored, storeStats) from the probe's
	// close/munmap + reopen window and from CloseStore. Writers don't
	// take it: they only touch the WAL, which the poisoned store
	// refuses by itself.
	storeReadMu sync.RWMutex
	// storeDir / storeOpts remember how to reopen the store after a
	// poisoning; set by OpenStore/AttachStore.
	storeDir  string
	storeOpts tsdb.Options

	// The reopen probe runs while a store is attached: AttachStore
	// starts it, CloseStore closes probeStop and waits on probeWG.
	probeMu   sync.Mutex
	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// Ingest admission gate (see AcquireIngest).
	inflightBytes   atomic.Int64
	inflightBatches atomic.Int64

	shards   [NumShards]shard
	jobCount atomic.Int64

	// MaxJobs bounds the number of concurrently tracked jobs (default
	// DefaultMaxJobs); registration beyond it is rejected. Set it
	// before serving traffic.
	MaxJobs int

	// MaxIngestBytes / MaxIngestBatches bound the ingest admission gate
	// (AcquireIngest): at most MaxIngestBatches concurrently admitted
	// ingest requests totalling at most MaxIngestBytes payload bytes.
	// 0 means the defaults (DefaultMaxIngestBytes/-Batches), negative
	// disables that bound. Set before serving traffic.
	MaxIngestBytes   int64
	MaxIngestBatches int

	// StoreProbeInterval is how often the reopen probe of an attached
	// store ticks (default DefaultStoreProbeInterval); a tick retries
	// opening the store only while the engine is degraded or
	// read-only. Set before attaching a store.
	StoreProbeInterval time.Duration

	// Logger, when set before serving traffic, receives the engine's
	// structured operational events — store degrade/heal/read-only
	// transitions (exactly one event per transition), recovery, and
	// quarantine reports. nil discards.
	Logger *slog.Logger

	met counters

	// obsm holds the latency/distribution instruments registered by
	// EnableMetrics; nil means the ingest path takes no clock readings.
	obsm *engineObs
	// inst is forwarded to the store on OpenStore and on every probe
	// reopen, so tsdb-level instruments survive store incarnations.
	inst tsdb.Instruments
}

type shard struct {
	mu   sync.RWMutex
	jobs map[string]*job
}

// job is one tracked stream. Its mutex serializes all access to the
// stream and the ingest bookkeeping; the shard lock only guards the
// map that holds it.
type job struct {
	mu      sync.Mutex
	stream  *core.Stream
	nodes   int
	samples int64
	lastOff time.Duration
	// st pins the store incarnation this job is registered in; nil for
	// jobs registered without a writable store. Writes pass
	// Engine.gateWrite, which requires st to equal the currently
	// attached store — a stale pointer (the job lived through a store
	// outage) silently falls back to memory-only.
	st *tsdb.Store
	// done marks a job that has been labelled or closed; a caller
	// that resolved the pointer before removal treats it as gone.
	done bool
	// colOff/colVal/runs are the job's reused ingest scratch:
	// feedSamples regroups each batch of rows into columnar (metric,
	// node) runs here, so steady-state ingest allocates nothing per
	// batch. Guarded by mu like the stream.
	colOff []time.Duration
	colVal []float64
	runs   []Run
}

// counters are the engine's monotonically increasing metrics,
// surfaced by Stats.
type counters struct {
	registered      atomic.Int64
	deleted         atomic.Int64
	learned         atomic.Int64
	sampleBatches   atomic.Int64
	samplesAccepted atomic.Int64
	batchesRejected atomic.Int64
	recognitions    atomic.Int64
	recovered       atomic.Int64
	rerecognitions  atomic.Int64
	shed            atomic.Int64
	probeAttempts   atomic.Int64
	probeReopens    atomic.Int64
	// Store-mode transition counters, bumped exactly once per
	// transition alongside the matching log event (see health.go).
	storeDegraded atomic.Int64
	storeReadonly atomic.Int64
	storeHealed   atomic.Int64
}

// New returns an engine over the dictionary. The engine takes
// ownership of the dictionary's concurrency: all further access must
// go through the engine (or Dictionary()).
func New(dict *efd.Dictionary) *Engine {
	e := &Engine{dict: core.Share(dict), MaxJobs: DefaultMaxJobs}
	e.state.Store(detached)
	for i := range e.shards {
		e.shards[i].jobs = make(map[string]*job)
	}
	return e
}

// Dictionary exposes the engine's shared dictionary for direct
// read/learn access outside the job lifecycle (ad-hoc recognitions,
// statistics). The engine's own locking is unaffected.
func (e *Engine) Dictionary() *efd.SharedDictionary { return e.dict }

// SaveDictionary writes the dictionary under shared access, so a save
// never observes a half-applied Learn.
func (e *Engine) SaveDictionary(w io.Writer) error {
	var err error
	e.dict.Read(func(d *core.Dictionary) { err = d.Save(w) })
	return err
}

// shardFor selects the shard of a job ID by FNV-1a hash.
func (e *Engine) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &e.shards[h%NumShards]
}

// getJob resolves a job ID to its live job, or nil.
func (e *Engine) getJob(id string) *job {
	sh := e.shardFor(id)
	sh.mu.RLock()
	j := sh.jobs[id]
	sh.mu.RUnlock()
	return j
}

// removeJob unlinks a specific job pointer from its shard, tolerating
// the ID having been re-registered in the meantime.
func (e *Engine) removeJob(id string, j *job) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	if sh.jobs[id] == j {
		delete(sh.jobs, id)
		e.jobCount.Add(-1)
	}
	sh.mu.Unlock()
}

// validateJobID enforces the registration-time job ID rules. IDs
// containing '/' would collide with path routing in the HTTP adapter,
// and "."/".." are unreachable after ServeMux path cleaning, so all
// are rejected up front.
func validateJobID(id string) error {
	switch {
	case id == "":
		return fmt.Errorf("%w: job_id required", ErrInvalid)
	case len(id) > MaxJobIDLen:
		return fmt.Errorf("%w: job_id longer than %d bytes", ErrInvalid, MaxJobIDLen)
	case strings.Contains(id, "/"):
		return fmt.Errorf("%w: job_id must not contain '/'", ErrInvalid)
	case id == "." || id == "..":
		return fmt.Errorf("%w: job_id must not be '.' or '..'", ErrInvalid)
	}
	return nil
}

// maxOffsetS is the largest offset (in seconds) representable as a
// time.Duration; larger offsets would overflow the conversion.
var maxOffsetS = float64(math.MaxInt64) / float64(time.Second)

// ValidateSamples rejects non-finite offsets/values and offsets whose
// Duration conversion would overflow, before anything is fed — a NaN
// value would otherwise permanently poison the job's Welford
// accumulators. The returned error wraps ErrInvalid.
func ValidateSamples(jobID string, samples []Sample) error {
	for i, smp := range samples {
		// >=/<=: maxOffsetS is float64(MaxInt64)/1e9 and float64
		// rounds MaxInt64 up to 2^63, so equality already overflows
		// the Duration conversion.
		if math.IsNaN(smp.OffsetS) || math.IsInf(smp.OffsetS, 0) || smp.OffsetS <= -maxOffsetS || smp.OffsetS >= maxOffsetS {
			return fmt.Errorf("%w: job %q sample %d: non-finite or out-of-range offset_s", ErrInvalid, jobID, i)
		}
		if math.IsNaN(smp.Value) || math.IsInf(smp.Value, 0) {
			return fmt.Errorf("%w: job %q sample %d: non-finite value", ErrInvalid, jobID, i)
		}
	}
	return nil
}

// validateRuns applies the same value hygiene to columnar runs (their
// offsets are already time.Durations, so only the values can smuggle
// in a NaN).
func validateRuns(jobID string, runs []Run) error {
	for ri, run := range runs {
		if len(run.Offsets) != len(run.Values) {
			return fmt.Errorf("%w: job %q run %d: column lengths differ (%d offsets, %d values)", ErrInvalid, jobID, ri, len(run.Offsets), len(run.Values))
		}
		for i, v := range run.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: job %q run %d sample %d: non-finite value", ErrInvalid, jobID, ri, i)
			}
		}
	}
	return nil
}

// Register starts tracking a job on the given number of nodes and
// returns its handle. With a store attached the registration is
// durable before Register returns.
func (e *Engine) Register(id string, nodes int) (*Job, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("%w: job_id and positive nodes required", ErrInvalid)
	}
	if err := validateJobID(id); err != nil {
		return nil, err
	}
	// Disk-full read-only mode sheds registrations outright (instead of
	// admitting them memory-only, as a poisoned-store outage does):
	// writes resume durable the moment space frees, and every job
	// admitted before then would be stuck memory-only for its lifetime.
	s, err := e.gateWrite(nil, "registration")
	if err != nil {
		return nil, err
	}
	sh := e.shardFor(id)
	// Cheap precheck so doomed registrations (duplicates, full table)
	// answer from the shard map alone, without building a stream or
	// waiting on the dictionary lock behind a Learn. Both conditions
	// are re-checked authoritatively under the write lock below.
	sh.mu.RLock()
	_, exists := sh.jobs[id]
	sh.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("%w: %q", ErrJobExists, id)
	}
	if e.jobCount.Load() >= int64(e.MaxJobs) {
		return nil, fmt.Errorf("%w (%d)", ErrTableFull, e.MaxJobs)
	}
	var stream *core.Stream
	e.dict.Read(func(d *core.Dictionary) { stream = core.NewStream(d, nodes) })
	sh.mu.Lock()
	if _, exists := sh.jobs[id]; exists {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrJobExists, id)
	}
	if e.jobCount.Add(1) > int64(e.MaxJobs) {
		e.jobCount.Add(-1)
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w (%d)", ErrTableFull, e.MaxJobs)
	}
	j := &job{stream: stream, nodes: nodes}
	// Pin the store incarnation before the job becomes reachable:
	// feeders that race ahead of the durable registration resolve the
	// same store and fail their append (unknown job) without touching
	// the stream, so memory never runs ahead of the WAL.
	if s != nil {
		j.st = s.store
	}
	sh.jobs[id] = j
	sh.mu.Unlock()
	// Durable registration. When the store fails (or is closed) under
	// it, the job is admitted memory-only, like every other job during
	// an outage: its pin names a store that is no longer writable.
	if s != nil {
		if err := e.settleWrite(s, "registration", s.store.Register(id, nodes)); err != nil {
			e.removeJob(id, j)
			return nil, err
		}
	}
	e.met.registered.Add(1)
	return &Job{e: e, id: id, j: j}, nil
}

// Lookup resolves a live job to its handle.
func (e *Engine) Lookup(id string) (*Job, bool) {
	j := e.getJob(id)
	if j == nil {
		return nil, false
	}
	return &Job{e: e, id: id, j: j}, true
}

// IngestBatches feeds a multi-job batch of wire samples: every batch
// is validated before anything is fed (an invalid batch rejects the
// whole call with ErrInvalid, leaving no partial state), batches are
// resolved shard by shard (one read-lock per shard per call), and a
// store commit — one fsync — acknowledges the entire call. It returns
// the number of samples fed and the sorted IDs of unknown jobs;
// feeding the rest proceeds despite unknowns.
func (e *Engine) IngestBatches(batches []Batch) (accepted int, unknown []string, err error) {
	return e.ingest(len(batches),
		func(i int) string { return batches[i].JobID },
		func(i int) error { return ValidateSamples(batches[i].JobID, batches[i].Samples) },
		func(i int, j *job) (int, bool, error) { return e.feedSamples(batches[i].JobID, j, batches[i].Samples) })
}

// IngestRuns is IngestBatches for columnar run batches — the binary
// wire path and the native form for columnar feeders. No regrouping
// happens: each batch's runs go to the WAL in one job-level append
// and feed the stream run by run.
func (e *Engine) IngestRuns(batches []RunBatch) (accepted int, unknown []string, err error) {
	return e.ingest(len(batches),
		func(i int) string { return batches[i].JobID },
		func(i int) error { return validateRuns(batches[i].JobID, batches[i].Runs) },
		func(i int, j *job) (int, bool, error) { return e.feedRuns(batches[i].JobID, j, batches[i].Runs) })
}

// ingest is the one engine-level ingest path behind both batch forms.
// Batch i of the call belongs to job id(i); validate(i) checks its
// samples, and feed(i, j) applies them to the live job j.
func (e *Engine) ingest(n int, id func(int) string, validate func(int) error, feed func(int, *job) (int, bool, error)) (accepted int, unknown []string, err error) {
	start := e.obsStart()
	defer func() { e.observeIngest(start, accepted) }()
	// Count attempts first so rejected batches stay a subset of
	// attempted ones in Stats (rejection rate can never read above
	// 100%).
	e.met.sampleBatches.Add(int64(n))
	invalid := 0
	for i := 0; i < n; i++ {
		verr := validateJobID(id(i))
		if verr == nil {
			verr = validate(i)
		}
		if verr != nil {
			invalid++
			if err == nil {
				err = verr
			}
		}
	}
	if invalid > 0 {
		e.met.batchesRejected.Add(int64(invalid))
		return 0, nil, err
	}
	var work []resolvedJob
	if n == 1 {
		// Single-job fast path (the per-node forwarder shape): resolve
		// directly, without the shard grouping's allocations.
		var one [1]resolvedJob
		if one[0].j = e.getJob(id(0)); one[0].j != nil {
			work = one[:]
		} else {
			unknown = []string{id(0)}
		}
	} else {
		work, unknown = e.resolveByShard(n, id)
	}
	for _, rw := range work {
		fed, ok, ferr := feed(rw.idx, rw.j)
		accepted += fed
		if ferr != nil {
			return accepted, nil, ferr
		}
		if !ok {
			unknown = append(unknown, id(rw.idx))
		}
	}
	// Sorted: shard-map iteration order is nondeterministic.
	sort.Strings(unknown)
	return accepted, unknown, e.commitAccepted(accepted)
}

// resolvedJob pairs a request index with its live job.
type resolvedJob struct {
	idx int
	j   *job
}

// resolveByShard resolves request entries 0..n-1 (whose job ID is
// id(i)) to live jobs, grouping by shard so each shard's read lock is
// taken once per call regardless of how many entries land on it.
// Unresolved IDs are returned separately.
func (e *Engine) resolveByShard(n int, id func(int) string) (work []resolvedJob, unknown []string) {
	byShard := make(map[*shard][]int, 1)
	for i := 0; i < n; i++ {
		sh := e.shardFor(id(i))
		byShard[sh] = append(byShard[sh], i)
	}
	work = make([]resolvedJob, 0, n)
	for sh, idxs := range byShard {
		sh.mu.RLock()
		for _, i := range idxs {
			if j := sh.jobs[id(i)]; j != nil {
				work = append(work, resolvedJob{idx: i, j: j})
			} else {
				unknown = append(unknown, id(i))
			}
		}
		sh.mu.RUnlock()
	}
	return work, unknown
}

// commitAccepted makes a batch durable: one group-commit fsync
// acknowledges however many runs the call appended. A commit failure
// leaves the streams already fed (a retry would double-feed them);
// ingest is at-least-once under storage errors, and an fsync failure
// means the durable state is suspect anyway — restart and replay the
// WAL rather than limp on.
//
// Only durable mode commits; a read-only engine skips the commit
// instead of shedding the fed batch. Its store-backed jobs were shed
// before appending, unless another writer entered read-only mode after
// their appends — those then fail the resume's re-pin check and stay
// memory-only. An absorbed commit failure (poisoning, graceful close)
// acknowledges the batch memory-only: the engine has degraded, and
// reads and further ingest keep working, which is the degradation
// contract.
func (e *Engine) commitAccepted(accepted int) error {
	if s, _ := e.gateWrite(nil, "commit"); accepted > 0 && s != nil {
		if err := e.settleWrite(s, "commit", s.store.Commit()); err != nil {
			return err
		}
	}
	e.met.samplesAccepted.Add(int64(accepted))
	return nil
}

// feedSamples applies one batch of pre-validated rows to a job: under
// its mutex it regroups them into contiguous (metric, node) runs in
// the job's reused scratch — LDMS forwarders emit long runs of one
// metric on one node, so the stream resolves metric configuration and
// window accumulators once per run instead of once per sample — and
// feeds those runs like any columnar batch.
func (e *Engine) feedSamples(id string, j *job, samples []Sample) (int, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.colOff, j.colVal, j.runs = j.colOff[:0], j.colVal[:0], j.runs[:0]
	for i := 0; i < len(samples); {
		metric, node, start := samples[i].Metric, samples[i].Node, len(j.colVal)
		for ; i < len(samples) && samples[i].Metric == metric && samples[i].Node == node; i++ {
			// Round, don't truncate: a forwarder that accumulated
			// 59.999999999999996 means the 60 s tick, and truncation
			// would silently drop it from the [60:120) window.
			// ValidateSamples already bounded the magnitude.
			j.colOff = append(j.colOff, time.Duration(math.Round(samples[i].OffsetS*float64(time.Second))))
			j.colVal = append(j.colVal, samples[i].Value)
		}
		j.runs = append(j.runs, Run{Metric: metric, Node: node, Offsets: j.colOff[start:], Values: j.colVal[start:]})
	}
	return e.feedRunsLocked(id, j, j.runs)
}

// feedRuns applies ready-made columnar runs to a job under its mutex.
func (e *Engine) feedRuns(id string, j *job, runs []Run) (int, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return e.feedRunsLocked(id, j, runs)
}

// feedRunsLocked is the one feed routine of the ingest path, under
// the job mutex: one store append for all of the job's runs in the
// call, then the runs into the stream. No dictionary lock is taken:
// FeedRun only reads the immutable fingerprint configuration, so
// ingest never stalls behind recognition or learning. With a store
// attached the runs are WAL-appended BEFORE they reach the stream, so
// the in-memory state never runs ahead of what a restart can replay;
// the fsync happens once per call (commitAccepted). It reports
// ok=false, having fed nothing, for a job that is gone.
func (e *Engine) feedRunsLocked(id string, j *job, runs []Run) (fed int, ok bool, err error) {
	if j.done {
		return 0, false, nil
	}
	s, err := e.gateWrite(j, "append")
	if err != nil {
		return 0, true, err
	}
	if s != nil {
		err := s.store.AppendRuns(id, len(runs), func(i int) (string, int, []time.Duration, []float64) {
			return runs[i].Metric, runs[i].Node, runs[i].Offsets, runs[i].Values
		})
		if errors.Is(err, tsdb.ErrUnknownJob) {
			// The documented register race: the job is in the shard
			// map but its store registration has not landed yet.
			// Nothing of this job was appended or fed — report it like
			// an unknown job instead of failing jobs already fed in
			// this call, whose WAL records still need the call's
			// commit.
			return 0, false, nil
		}
		// An absorbed failure (store poisoned or gracefully closed
		// under the call) feeds the runs memory-only.
		if err := e.settleWrite(s, "append", err); err != nil {
			return 0, true, err
		}
	}
	for _, run := range runs {
		for _, off := range run.Offsets {
			if off > j.lastOff {
				j.lastOff = off
			}
		}
		j.stream.FeedRun(run.Metric, run.Node, run.Offsets, run.Values)
		fed += len(run.Values)
	}
	j.samples += int64(fed)
	return fed, true, nil
}

// Jobs returns a deterministic (ID-sorted), paginated listing of live
// jobs with lightweight per-job state. Recognition state is
// deliberately per-job (Job.Result), so a wide listing never runs
// recognition for every job.
func (e *Engine) Jobs(offset, limit int) (Listing, error) {
	if offset < 0 {
		return Listing{}, fmt.Errorf("%w: negative offset %d", ErrInvalid, offset)
	}
	if limit <= 0 || limit > 1000 {
		return Listing{}, fmt.Errorf("%w: limit %d out of range (1..1000)", ErrInvalid, limit)
	}
	type idJob struct {
		id string
		j  *job
	}
	var all []idJob
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for id, j := range sh.jobs {
			all = append(all, idJob{id, j})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, k int) bool { return all[i].id < all[k].id })
	out := Listing{Total: len(all), Offset: offset, Limit: limit, Jobs: []Summary{}}
	if offset < len(all) {
		page := all[offset:]
		if len(page) > limit {
			page = page[:limit]
		}
		for _, ij := range page {
			ij.j.mu.Lock()
			out.Jobs = append(out.Jobs, Summary{
				JobID:       ij.id,
				Nodes:       ij.j.nodes,
				Complete:    ij.j.stream.Complete(),
				Samples:     ij.j.samples,
				LastOffsetS: ij.j.lastOff.Seconds(),
			})
			ij.j.mu.Unlock()
		}
	}
	return out, nil
}

// DictionaryInfo snapshots the dictionary statistics.
func (e *Engine) DictionaryInfo() DictionaryInfo {
	var out DictionaryInfo
	e.dict.Read(func(d *core.Dictionary) {
		st := d.Stats()
		out = DictionaryInfo{
			Keys: st.Keys, Exclusive: st.Exclusive, Collisions: st.Collisions,
			Labels: st.Labels, Depth: st.Depth, Apps: d.Apps(),
		}
	})
	out.LiveJobs = int(e.jobCount.Load())
	return out
}

// Stats snapshots the engine's operational counters.
func (e *Engine) Stats() Stats {
	out := Stats{
		LiveJobs:        e.jobCount.Load(),
		MaxJobs:         e.MaxJobs,
		Shards:          NumShards,
		ShardOccupancy:  make([]int, NumShards),
		Registered:      e.met.registered.Load(),
		Deleted:         e.met.deleted.Load(),
		Learned:         e.met.learned.Load(),
		SampleBatches:   e.met.sampleBatches.Load(),
		SamplesAccepted: e.met.samplesAccepted.Load(),
		BatchesRejected: e.met.batchesRejected.Load(),
		Recognitions:    e.met.recognitions.Load(),
		Health:          e.state.Load().status(),
		IngestShedTotal: e.met.shed.Load(),
		Store:           e.storeStats(),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		out.ShardOccupancy[i] = len(sh.jobs)
		sh.mu.RUnlock()
	}
	return out
}

// --- the per-job handle ----------------------------------------------

// Job is the handle of one tracked job. A handle stays valid after
// the job is labelled or closed — further calls simply report
// ErrUnknownJob, exactly as a fresh Lookup would.
type Job struct {
	e  *Engine
	id string
	j  *job
}

// ID returns the job's identifier.
func (jb *Job) ID() string { return jb.id }

// Ingest feeds one batch of wire samples and reports how many were
// fed. With a store attached the batch is durable (one fsync) before
// Ingest returns.
func (jb *Job) Ingest(samples []Sample) (int, error) {
	return jb.ingest(ValidateSamples(jb.id, samples), func() (int, bool, error) {
		return jb.e.feedSamples(jb.id, jb.j, samples)
	})
}

// IngestRun feeds one columnar (metric, node) run.
func (jb *Job) IngestRun(metric string, node int, offsets []time.Duration, values []float64) (int, error) {
	runs := []Run{{Metric: metric, Node: node, Offsets: offsets, Values: values}}
	return jb.ingest(validateRuns(jb.id, runs), func() (int, bool, error) {
		return jb.e.feedRuns(jb.id, jb.j, runs)
	})
}

// ingest is the one handle-level ingest path behind both forms: verr
// is the batch's validation outcome, and feed applies it to the job.
func (jb *Job) ingest(verr error, feed func() (int, bool, error)) (int, error) {
	e := jb.e
	e.met.sampleBatches.Add(1)
	if verr != nil {
		e.met.batchesRejected.Add(1)
		return 0, verr
	}
	start := e.obsStart()
	n, ok, err := feed()
	if err == nil && ok {
		err = e.commitAccepted(n)
	} else if err == nil {
		err = fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	e.observeIngest(start, n)
	return n, err
}

// Result answers with the job's current recognition state —
// provisional until State.Complete, final (identical to offline
// recognition of the same telemetry) afterwards.
func (jb *Job) Result() (State, error) {
	jb.j.mu.Lock()
	if jb.j.done {
		jb.j.mu.Unlock()
		return State{}, fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	var out State
	// The stream's recognizer scratch is reused across polls (we hold
	// the job mutex, so no concurrent poll can invalidate the Result);
	// the dictionary read section excludes a concurrent Learn while
	// the Result is consumed.
	jb.e.dict.Read(func(*core.Dictionary) {
		res := jb.j.stream.Recognize()
		out = State{
			JobID:      jb.id,
			Complete:   jb.j.stream.Complete(),
			Recognized: res.Recognized(),
			Top:        res.Top(),
			// res.Apps aliases the recognizer's reused scratch; it
			// must be copied before the locks drop or a concurrent
			// poll of the same job would rewrite it mid-encode.
			Apps:       append([]string(nil), res.Apps...),
			Votes:      res.Votes(),
			Confidence: res.Confidence(),
			Matched:    res.Matched,
			Total:      res.Total,
		}
	})
	jb.j.mu.Unlock()
	jb.e.met.recognitions.Add(1)
	jb.e.observeRecognition(&out)
	return out, nil
}

// Complete reports whether the job's fingerprint window has closed —
// the moment Result becomes final. It is much cheaper than Result
// (no recognition pass, no dictionary lock), so per-sample monitors
// should gate their Result polls on it.
func (jb *Job) Complete() (bool, error) {
	jb.j.mu.Lock()
	defer jb.j.mu.Unlock()
	if jb.j.done {
		return false, fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	return jb.j.stream.Complete(), nil
}

// Summary reports the job's lightweight listing state.
func (jb *Job) Summary() (Summary, error) {
	jb.j.mu.Lock()
	defer jb.j.mu.Unlock()
	if jb.j.done {
		return Summary{}, fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	return Summary{
		JobID:       jb.id,
		Nodes:       jb.j.nodes,
		Complete:    jb.j.stream.Complete(),
		Samples:     jb.j.samples,
		LastOffsetS: jb.j.lastOff.Seconds(),
	}, nil
}

// Label learns the completed job into the dictionary under the
// (application, input) label and retires it: the job leaves the live
// table and — with a store attached — becomes a stored,
// re-recognizable execution. Returns the canonical label string.
func (jb *Job) Label(app, input string) (string, error) {
	label, err := apps.ParseLabel(app + "_" + input)
	if err != nil {
		return "", fmt.Errorf("%w: bad label: %v", ErrInvalid, err)
	}
	jb.j.mu.Lock()
	if jb.j.done {
		jb.j.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	if !jb.j.stream.Complete() {
		jb.j.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNotComplete, jb.id)
	}
	// Store first, learn second: Finish mutates nothing when its WAL
	// append fails, so a storage error leaves the job fully intact
	// (still live, still labellable) with the dictionary untouched —
	// whereas Learn cannot be rolled back. Running it under the job
	// mutex and before the unlink also pins the store incarnation:
	// feeders are blocked by j.mu, and a re-registration of the same
	// ID cannot slip in (the ID is still in the shard map, so Register
	// answers ErrJobExists) and have its fresh store entry finished by
	// us. An absorbed failure (store poisoned / closed under us) labels
	// memory-only: the dictionary still learns, the execution just
	// isn't persisted.
	s, err := jb.e.gateWrite(jb.j, "finish")
	if s != nil {
		err = jb.e.settleWrite(s, "finish", s.store.Finish(jb.id, label.String()))
	}
	if err != nil {
		jb.j.mu.Unlock()
		return "", err
	}
	// Online learning: insert the completed stream's fingerprints
	// under exclusive dictionary access.
	jb.e.dict.Learn(jb.j.stream, label)
	jb.j.done = true
	jb.j.mu.Unlock()
	jb.e.removeJob(jb.id, jb.j)
	jb.e.met.learned.Add(1)
	return label.String(), nil
}

// Close forgets the job outright: its stream is discarded and — with
// a store attached — its telemetry will not survive the next WAL
// compaction. The fingerprints are NOT learned.
func (jb *Job) Close() error {
	// Same order as Label (job mutex, then shard lock via removeJob):
	// done is set before the unlink, so a feeder that resolved the
	// pointer earlier can never feed an unlinked stream.
	jb.j.mu.Lock()
	if jb.j.done {
		jb.j.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, jb.id)
	}
	// Drop from the store before the unlink, under the job mutex, for
	// the same incarnation-pinning reasons as Label: a failed Drop
	// leaves the job fully alive (no state diverged), and a concurrent
	// re-registration cannot create a fresh store entry for this ID
	// that our Drop would then delete. An absorbed failure closes
	// memory-only.
	s, err := jb.e.gateWrite(jb.j, "drop")
	if s != nil {
		err = jb.e.settleWrite(s, "drop", s.store.Drop(jb.id))
	}
	if err != nil {
		jb.j.mu.Unlock()
		return err
	}
	jb.j.done = true
	jb.j.mu.Unlock()
	jb.e.removeJob(jb.id, jb.j)
	jb.e.met.deleted.Add(1)
	return nil
}
