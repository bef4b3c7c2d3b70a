package monitor

// The store-mode ladder (graceful degradation and disk-full read-only
// mode) and overload control.
//
// The durable store can poison itself at runtime (a WAL write or
// fsync failure): every further store mutation refuses until a reopen
// replays the disk. Rather than turning those refusals into ingest
// failures, the engine degrades: the store is fenced off, ingest and
// every read keep working memory-only, and health reporting flips to
// "degraded" with the triggering error. When the reopen probe succeeds
// the engine returns to durable mode — jobs registered from then on
// are WAL-backed again, while jobs that lived through the outage stay
// memory-only (their streams hold samples the store never saw;
// resuming their WAL would persist a lie).
//
// A full disk (ENOSPC/EDQUOT) is different: nothing is corrupt, the
// condition is transient, and every byte already acknowledged is
// intact. The engine enters read-only mode instead — the store stays
// open and keeps serving every read, while writes are SHED with the
// retryable ErrReadOnly (HTTP 503 upstream) rather than absorbed
// memory-only; shedding keeps each stream in lockstep with its WAL,
// so when the probe sees disk headroom again (diskRecovered) the
// store is reopened and the surviving jobs resume fully durable.
//
// The ladder is one immutable storeState behind one atomic pointer.
// Only transition replaces it, and it takes each edge's actions — a
// log event and its counters — from one table, storeEdges. Every store
// write a caller drives passes one gate: gateWrite before it,
// settleWrite after it; only the probe writes outside it, while it
// reopens the store. The reopen probe lives exactly as long as a store
// is attached: AttachStore starts it, CloseStore stops it, and its
// ticks act only in degraded or read-only mode.
//
// Overload control is a separate, engine-level concern: AcquireIngest
// bounds the bytes and batch count admitted concurrently, so a flood
// of oversized ingest requests degrades into fast, explicit shedding
// (HTTP 429 upstream) instead of unbounded memory growth. It does not
// enter the health verdict: a full gate sheds with 429, it is not a
// store mode.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// Store modes. The mode gates every store write: only storeModeRW
// touches the store. A degraded engine keeps serving from memory; a
// readonly engine keeps the store open for reads and sheds writes
// until the disk has space again.
const (
	storeModeNone     int32 = iota // no store attached
	storeModeRW                    // healthy, durable
	storeModeDegraded              // store poisoned; memory-only until reopened
	storeModeReadonly              // disk full; store serves reads, writes shed
)

// storeModeNames names the store modes for log events.
var storeModeNames = [...]string{"none", "rw", "degraded", "readonly"}

// Health status strings, the GET /v1/health vocabulary.
const (
	StatusHealthy  = "healthy"
	StatusDegraded = "degraded"
	StatusReadonly = "readonly"
)

// DefaultStoreProbeInterval is how often the reopen probe of an
// attached store ticks; a tick acts only while the engine is degraded
// or read-only.
const DefaultStoreProbeInterval = 15 * time.Second

// Default ingest admission bounds; see Engine.MaxIngestBytes.
const (
	DefaultMaxIngestBytes   = 64 << 20
	DefaultMaxIngestBatches = 256
)

// HealthInfo is the engine's health snapshot — the GET /v1/health
// response body.
type HealthInfo struct {
	// Status is "healthy", "degraded" (the durable store failed and a
	// background probe is attempting to reopen it; ingest and reads
	// continue memory-only), or "readonly" (the store's disk is full:
	// reads keep serving and writes are shed until the probe sees
	// space freed; see Disk). A saturated ingest admission gate does
	// not change it: the Ingest* fields report the gate.
	Status string `json:"status"`
	// Error is the triggering store error while degraded or readonly.
	Error string `json:"error,omitempty"`
	// DegradedForS is how long the engine has been degraded.
	DegradedForS float64 `json:"degraded_for_s,omitempty"`
	// StoreReopenAttempts / StoreReopens count probe activity since the
	// engine started.
	StoreReopenAttempts int64 `json:"store_reopen_attempts,omitempty"`
	StoreReopens        int64 `json:"store_reopens,omitempty"`
	// Ingest admission gate occupancy and lifetime shed count.
	IngestInflightBytes   int64 `json:"ingest_inflight_bytes"`
	IngestInflightBatches int64 `json:"ingest_inflight_batches"`
	IngestShedTotal       int64 `json:"ingest_shed_total"`
	// Disk is the durable store's disk state. Present when the store
	// has a configured low-space watermark or is in read-only mode;
	// omitted otherwise (and always for store-less engines).
	Disk *DiskHealth `json:"disk,omitempty"`
}

// DiskHealth is the disk section of HealthInfo.
type DiskHealth struct {
	// FreeBytes is the space available to the store, as reported by
	// the filesystem; -1 when the platform cannot report it.
	FreeBytes int64 `json:"free_bytes"`
	// LowWatermarkBytes is the configured proactive flush-refusal
	// watermark (StoreOptions.DiskLowBytes); 0 when unset.
	LowWatermarkBytes int64 `json:"low_watermark_bytes"`
	// ReadOnly reports disk-full read-only mode: every read keeps
	// serving, writes answer with a retryable error until the
	// background probe sees space freed and resumes durable mode.
	ReadOnly bool `json:"read_only"`
}

// Health snapshots the engine's health from one load of the store
// state.
func (e *Engine) Health() HealthInfo {
	s := e.state.Load()
	out := HealthInfo{
		Status:                s.status(),
		StoreReopenAttempts:   e.met.probeAttempts.Load(),
		StoreReopens:          e.met.probeReopens.Load(),
		IngestInflightBytes:   e.inflightBytes.Load(),
		IngestInflightBatches: e.inflightBatches.Load(),
		IngestShedTotal:       e.met.shed.Load(),
		Disk:                  e.diskHealth(s),
	}
	if s.cause != nil {
		out.Error = s.cause.Error()
	}
	if !s.since.IsZero() {
		out.DegradedForS = time.Since(s.since).Seconds()
	}
	return out
}

// diskHealth builds the disk section of Health and Stats. It appears
// once disk state is interesting — a configured watermark or read-only
// mode — so default health bodies stay stable (and byte-reproducible)
// across machines.
func (e *Engine) diskHealth(s *storeState) *DiskHealth {
	readOnly := s.mode == storeModeReadonly
	if s.store == nil || (e.storeOpts.DiskLowBytes <= 0 && !readOnly) {
		return nil
	}
	d := &DiskHealth{FreeBytes: -1, LowWatermarkBytes: e.storeOpts.DiskLowBytes, ReadOnly: readOnly}
	if free, ok := s.store.DiskFree(); ok {
		d.FreeBytes = int64(min(free, uint64(math.MaxInt64)))
	}
	return d
}

func (e *Engine) ingestByteCap() int64 {
	if e.MaxIngestBytes != 0 {
		return e.MaxIngestBytes
	}
	return DefaultMaxIngestBytes
}

func (e *Engine) ingestBatchCap() int64 {
	if e.MaxIngestBatches != 0 {
		return int64(e.MaxIngestBatches)
	}
	return DefaultMaxIngestBatches
}

// AcquireIngest admits one ingest request of approximately `bytes`
// payload bytes into the engine, or refuses with ErrOverloaded when
// admission would exceed MaxIngestBytes / MaxIngestBatches. On success
// the returned release must be called exactly once when the request
// finishes (it tolerates duplicates). The HTTP adapter acquires before
// decoding, so an overload answers from the request headers alone.
func (e *Engine) AcquireIngest(bytes int64) (release func(), err error) {
	if bytes < 0 {
		bytes = 0
	}
	maxB, maxN := e.ingestByteCap(), e.ingestBatchCap()
	if b := e.inflightBytes.Add(bytes); maxB > 0 && b > maxB {
		e.inflightBytes.Add(-bytes)
		e.met.shed.Add(1)
		return nil, fmt.Errorf("%w: %d ingest bytes in flight (cap %d)", ErrOverloaded, b-bytes, maxB)
	}
	if n := e.inflightBatches.Add(1); maxN > 0 && n > maxN {
		e.inflightBatches.Add(-1)
		e.inflightBytes.Add(-bytes)
		e.met.shed.Add(1)
		return nil, fmt.Errorf("%w: %d ingest requests in flight (cap %d)", ErrOverloaded, n-1, maxN)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			e.inflightBytes.Add(-bytes)
			e.inflightBatches.Add(-1)
		})
	}, nil
}

// --- the store-mode ladder ---------------------------------------------

// storeState is one immutable snapshot of the ladder. New sets the
// detached state; from then on only transition replaces it.
type storeState struct {
	mode  int32
	store *tsdb.Store // attached store; nil when none is attached
	cause error       // triggering store error while degraded or readonly
	since time.Time   // when the engine degraded; zero otherwise
}

// detached is the state without a store.
var detached = &storeState{}

// status is the snapshot's health status.
func (s *storeState) status() string {
	switch s.mode {
	case storeModeDegraded:
		return StatusDegraded
	case storeModeReadonly:
		return StatusReadonly
	}
	return StatusHealthy
}

// storeEdge is the action list of one ladder edge: the log event, and
// the counters bumped alongside it.
type storeEdge struct {
	level slog.Level
	event string
	msg   string
	bump  func(*counters)
}

var (
	degradeEdge = storeEdge{slog.LevelError, "store_degrade", "store degraded; serving memory-only",
		func(c *counters) { c.storeDegraded.Add(1) }}
	healEdge = storeEdge{slog.LevelInfo, "store_heal", "store reopened; durable mode resumed",
		func(c *counters) { c.storeHealed.Add(1); c.probeReopens.Add(1) }}
)

// storeEdges is the ladder's transition table. Edges not listed —
// none→rw (AttachStore) and any→none (CloseStore) — are silent.
var storeEdges = map[[2]int32]storeEdge{
	{storeModeRW, storeModeDegraded}: degradeEdge,
	{storeModeRW, storeModeReadonly}: {slog.LevelWarn, "store_readonly", "store entered read-only mode; shedding writes",
		func(c *counters) { c.storeReadonly.Add(1) }},
	{storeModeReadonly, storeModeDegraded}: degradeEdge,
	// A failed reopen while already degraded is no transition: no
	// counter, debug level.
	{storeModeDegraded, storeModeDegraded}: {slog.LevelDebug, "store_reopen_failed", "store reopen attempt failed", func(*counters) {}},
	{storeModeDegraded, storeModeRW}:       healEdge,
	{storeModeReadonly, storeModeRW}:       healEdge,
}

// transition moves the ladder from the snapshot the caller saw to next
// and runs that edge's actions: its counters, then its log event. It
// reports false, doing nothing, when another transition got there
// first — so each transition's actions run exactly once, however many
// callers observed the same fault.
func (e *Engine) transition(from, next *storeState) bool {
	if !e.state.CompareAndSwap(from, next) {
		return false
	}
	edge, ok := storeEdges[[2]int32{from.mode, next.mode}]
	if !ok {
		return true
	}
	edge.bump(&e.met)
	if next.mode == storeModeRW {
		e.logger().Log(context.Background(), edge.level, edge.msg, "event", edge.event, "from", storeModeNames[from.mode])
	} else {
		e.logger().Log(context.Background(), edge.level, edge.msg, "event", edge.event, "error", next.cause.Error())
	}
	return true
}

// reset moves the ladder to next from whatever state it is in, and
// returns the state it left.
func (e *Engine) reset(next *storeState) *storeState {
	for {
		if s := e.state.Load(); e.transition(s, next) {
			return s
		}
	}
}

// gateWrite opens a store write of job j — nil for an engine-level
// write, a registration or a batch commit; called with j.mu held when
// j is non-nil. It returns the snapshot the write runs against, or nil
// when the write runs memory-only: no writable store, or a job pinned
// to another store incarnation (it lived through an outage, and its
// stream holds samples the attached store never saw). In read-only
// mode a write that needs the store is shed with the retryable
// ErrReadOnly instead of going memory-only, so each stream stays in
// lockstep with its WAL and can resume durable when space frees.
func (e *Engine) gateWrite(j *job, op string) (*storeState, error) {
	s := e.state.Load()
	if j != nil && j.st != s.store {
		return nil, nil
	}
	switch s.mode {
	case storeModeRW:
		return s, nil
	case storeModeReadonly:
		return nil, storeErr(op, ErrReadOnly)
	}
	return nil, nil
}

// settleWrite closes the store write gateWrite opened against s: it
// returns the error the caller must surface, or nil when the write
// succeeded or the engine absorbed its failure — the store was closed
// under the caller (a CloseStore race) or poisoned itself, in which
// case the engine degrades and the caller proceeds memory-only. A
// disk-full failure enters read-only mode and is surfaced with the
// retryable ErrReadOnly, so the caller sheds the write rather than
// acknowledging it memory-only; any other failure (validation, unknown
// job, a failed flush on a healthy store) is the caller's to surface.
func (e *Engine) settleWrite(s *storeState, op string, err error) error {
	switch {
	case err == nil || errors.Is(err, tsdb.ErrClosed):
		return nil
	case errors.Is(err, tsdb.ErrReadOnly) || errors.Is(err, tsdb.ErrDiskFull) || s.store.ReadOnly() != nil:
		e.transition(s, &storeState{mode: storeModeReadonly, store: s.store, cause: err})
	case s.store.Failed() != nil:
		e.transition(s, &storeState{mode: storeModeDegraded, store: s.store, cause: err, since: time.Now()})
		return nil
	}
	return storeErr(op, err)
}

// storeErr wraps a store write failure for callers. Disk-full
// failures additionally carry the retryable ErrReadOnly identity, so
// the HTTP adapter can answer 503 + Retry-After instead of 500.
func storeErr(op string, err error) error {
	if errors.Is(err, ErrReadOnly) {
		return fmt.Errorf("%w %s: %w", ErrStore, op, err)
	}
	if errors.Is(err, tsdb.ErrReadOnly) || errors.Is(err, tsdb.ErrDiskFull) {
		return fmt.Errorf("%w %s: %w: %v", ErrStore, op, ErrReadOnly, err)
	}
	return fmt.Errorf("%w %s: %v", ErrStore, op, err)
}

// stopProbe halts the reopen probe (if running) and waits for it to
// exit.
func (e *Engine) stopProbe() {
	e.probeMu.Lock()
	if e.probeStop != nil {
		close(e.probeStop)
		e.probeStop = nil
	}
	e.probeMu.Unlock()
	e.probeWG.Wait()
}

func (e *Engine) probeLoop(stop chan struct{}) {
	defer e.probeWG.Done()
	interval := e.StoreProbeInterval
	if interval <= 0 {
		interval = DefaultStoreProbeInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.probeTick()
		}
	}
}

// probeTick is one probe step. Only a degraded or read-only engine
// acts, and counts an attempt: it closes the unhealthy store and
// reopens its directory. The write lock on storeReadMu excludes every
// reader for the close/munmap + reopen window, so no mapped segment
// view is torn down mid-read. Nothing else moves the ladder out of
// these modes — writers only transition from rw, and CloseStore stops
// the probe first — so the tick's own transition cannot lose a race.
func (e *Engine) probeTick() {
	s := e.state.Load()
	if s.mode != storeModeDegraded && s.mode != storeModeReadonly {
		return
	}
	e.met.probeAttempts.Add(1)
	if s.mode == storeModeReadonly && !e.diskRecovered(s.store) {
		// The readonly store is still open and serving reads; don't
		// bounce it until the disk has real headroom again, so the
		// engine can't flap at the edge of full.
		return
	}
	e.storeReadMu.Lock()
	defer e.storeReadMu.Unlock()
	if s.store != nil {
		// Unhealthy close: flush and sync are skipped (crash semantics),
		// but descriptors, mappings, and the directory flock release.
		s.store.Close()
	}
	st, err := tsdb.OpenOptions(e.storeDir, e.storeOpts)
	if err != nil {
		// The old store is gone; whichever mode we came from, the
		// engine is now fully degraded — memory-only, probe still
		// trying.
		since := s.since
		if since.IsZero() {
			since = time.Now()
		}
		e.transition(s, &storeState{mode: storeModeDegraded, cause: err, since: since})
		return
	}
	// Re-pinned jobs stay locked until the new state is published: in
	// between, the gate would see a job pinned to a store that is not
	// yet the attached one and feed it memory-only, behind its WAL.
	var held []*job
	for _, lj := range st.Live() {
		if j := e.repin(s, st, lj); j != nil {
			held = append(held, j)
		} else {
			st.Drop(lj.ID)
		}
	}
	e.transition(s, &storeState{mode: storeModeRW, store: st})
	for _, j := range held {
		j.mu.Unlock()
	}
}

// repin moves a job that lived through a read-only window onto the
// reopened incarnation st, and returns it with j.mu held. It does so
// only when the replay holds exactly what the job's stream was fed:
// the ENOSPC that entered read-only mode may have surfaced after a
// batch's runs were fed (at its commit flush, or at an append that
// overflowed the WAL buffer), and the read-only close never flushed
// them. WAL-before-stream makes the replay a prefix of the fed runs,
// so equal counts mean equal content. Every other replayed job — one
// that lived through a degraded outage (its stream holds samples the
// store never saw), a diverged one, one the engine no longer tracks —
// yields nil, for the caller to drop from the store; its stream keeps
// serving memory-only.
func (e *Engine) repin(from *storeState, st *tsdb.Store, lj tsdb.LiveJob) *job {
	j := e.getJob(lj.ID)
	if from.mode != storeModeReadonly || j == nil {
		return nil
	}
	j.mu.Lock()
	if j.st != from.store || j.done || j.samples != lj.Samples {
		j.mu.Unlock()
		return nil
	}
	j.st = st
	return j
}

// diskRecovered reports whether the store's disk has enough headroom
// to leave read-only mode: at least the configured watermark, and
// never less than a 1 MiB floor — resuming into an immediately-full
// disk would just bounce straight back. An unknown free-space reading
// errs toward attempting the resume; the next append settles it.
func (e *Engine) diskRecovered(st *tsdb.Store) bool {
	free, ok := st.DiskFree()
	if !ok {
		return true
	}
	floor := uint64(1 << 20)
	if wm := e.storeOpts.DiskLowBytes; wm > 0 && uint64(wm) > floor {
		floor = uint64(wm)
	}
	return free >= floor
}

// Close shuts the engine down: the reopen probe is stopped and the
// store (when attached) is flushed and closed. Live jobs stay readable
// in memory; the engine may keep serving non-durable traffic.
func (e *Engine) Close() error { return e.CloseStore() }
