package tsdb

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vfs"
)

// Options tune a store. The zero value is ready for production use.
type Options struct {
	// FlushBytes is the pending-execution byte estimate beyond which
	// Finish kicks a background flush into a segment file. Default
	// 8 MiB; negative disables automatic flushing (Flush/Close still
	// flush).
	FlushBytes int64
	// HistBins is the per-series histogram sketch resolution persisted
	// in segment footers. Default telemetry.DefaultHistBins.
	HistBins int
	// NoSync skips every fsync. Replay correctness is unaffected (the
	// file contents are identical); only crash durability is lost. For
	// benchmarks and bulk loads.
	NoSync bool
	// FS is the filesystem the store performs all I/O through. Default
	// vfs.OS{} (the real disk); tests substitute a vfs.Fault to inject
	// ENOSPC, torn writes, fsync failures, and crashes at exact
	// operation boundaries.
	FS vfs.FS
	// DiskLowBytes is the free-space headroom watermark: when the
	// store's filesystem reports fewer free bytes, segment flushes are
	// refused with ErrDiskFull before the disk is hard-full (the WAL —
	// small, already-acknowledged appends — keeps going until a real
	// ENOSPC). 0 disables the watermark.
	DiskLowBytes int64
	// RecoverRetries is the per-operation retry budget recovery I/O
	// (Open: directory scan, segment mapping, WAL read, quarantine)
	// gets before the failure is treated as permanent. Default 4
	// retries (5 attempts); negative disables retrying.
	RecoverRetries int
	// RecoverBackoff is the sleep before the first recovery retry,
	// doubling per attempt. Default 1ms; negative means no backoff.
	RecoverBackoff time.Duration
	// Inst are optional observability instruments (see Instruments).
	// The zero value records nothing and skips the clock reads.
	Inst Instruments
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FlushBytes == 0 {
		out.FlushBytes = 8 << 20
	}
	if out.HistBins <= 0 {
		out.HistBins = telemetry.DefaultHistBins
	}
	if out.FS == nil {
		out.FS = vfs.OS{} //efdvet:ignore vfsseam the documented default when no FS is injected
	}
	// Negative retry budgets and backoffs stay negative (retryRecovery
	// reads them as none), so reopening with Options() keeps them.
	if out.RecoverRetries == 0 {
		out.RecoverRetries = 4
	}
	if out.RecoverBackoff == 0 {
		out.RecoverBackoff = time.Millisecond
	}
	return out
}

// Stats is a snapshot of the store's counters, surfaced by the
// server's GET /v1/metrics.
type Stats struct {
	LiveJobs    int   `json:"live_jobs"`
	PendingJobs int   `json:"pending_jobs"`
	Executions  int   `json:"executions"`
	Segments    int   `json:"segments"`
	WALBytes    int64 `json:"wal_bytes"`
	MmapBytes   int64 `json:"mmap_bytes"`
	// AppendedRecords counts WAL records appended since Open; Commits
	// counts acknowledged fsync batches (group commit can make this
	// much smaller than AppendedRecords).
	AppendedRecords int64 `json:"appended_records"`
	Commits         int64 `json:"commits"`
	Flushes         int64 `json:"flushes"`
	// ReplayedRecords is the number of WAL records recovered at Open;
	// the quarantine counters record what crash recovery had to set
	// aside (a torn WAL tail, segments failing validation).
	ReplayedRecords     int64 `json:"replayed_records"`
	QuarantinedWALBytes int64 `json:"quarantined_wal_bytes"`
	QuarantinedSegments int64 `json:"quarantined_segments"`
	// LastFlushError reports the most recent flush failure ("" when the
	// last flush succeeded) — the only trace of an error from the
	// background flush that Finish kicks, so monitoring should alarm on
	// it.
	LastFlushError string `json:"last_flush_error,omitempty"`
}

// ErrUnknownJob is returned for operations on a job the store does not
// track.
var ErrUnknownJob = errors.New("tsdb: unknown job")

// ErrJobExists is returned by Register for an ID that is already live.
var ErrJobExists = errors.New("tsdb: job already registered")

// ErrUnknownExecution is returned when no stored execution has the
// requested ID.
var ErrUnknownExecution = errors.New("tsdb: unknown execution")

// ErrClosed is returned for any mutation or flush after Close.
var ErrClosed = errors.New("tsdb: store closed")

// ErrReadOnly is returned for every mutation while the store is in
// read-only mode: the disk filled up (ErrDiskFull is always in the
// same chain), reads keep being served from the memtable and the
// existing segments, and writes are shed. The condition is transient
// — retry after space frees; a supervisor reopens the store to
// resume writes.
var ErrReadOnly = errors.New("tsdb: store is read-only")

// ErrDiskFull marks an out-of-space condition: a watermark-refused
// segment flush, or the ENOSPC that switched the store read-only.
// Unlike poisoning failures it heals when space frees.
var ErrDiskFull = errors.New("tsdb: disk full")

// ErrLocked is returned by Open when another process holds the data
// directory's lock.
var ErrLocked = vfs.ErrLocked

type seriesKey struct {
	metric string
	node   int
}

// memSeries is one series being accumulated in the memtable: the same
// columnar shape as telemetry.Series, with the implicit-grid fast path
// (offs stays nil while every offset lands on the 1 Hz grid). It
// deliberately mirrors rather than embeds telemetry.Series — the
// store needs bulk run appends and raw column access for the WAL and
// segment writers, which Series encapsulates away; if Series ever
// grows an AppendRun + column accessors, this type should collapse
// onto it (grid detection and sortSamples must match Series.Append/
// Sort semantics exactly until then).
type memSeries struct {
	metric   string
	node     int
	offs     []time.Duration // nil while on the implicit grid
	vals     []float64
	unsorted bool
}

func (m *memSeries) appendRun(offs []time.Duration, vals []float64) {
	base := len(m.vals)
	if m.offs == nil {
		grid := true
		for k, off := range offs {
			if off != time.Duration(base+k)*telemetry.DefaultPeriod {
				grid = false
				break
			}
		}
		if !grid {
			mat := make([]time.Duration, base, base+len(offs))
			for i := range mat {
				mat[i] = time.Duration(i) * telemetry.DefaultPeriod
			}
			m.offs = mat
		}
	}
	if m.offs != nil {
		prev := time.Duration(-1)
		if n := len(m.offs); n > 0 {
			prev = m.offs[n-1]
		}
		for _, off := range offs {
			if off < prev {
				m.unsorted = true
			}
			prev = off
		}
		m.offs = append(m.offs, offs...)
	}
	m.vals = append(m.vals, vals...)
}

// sortSamples orders the series by offset (stable, matching
// telemetry.Series.Sort's tie behaviour) and re-compacts to the
// implicit grid when possible — the flush path calls it so segment
// columns are always sorted.
func (m *memSeries) sortSamples() {
	if !m.unsorted {
		return
	}
	pairs := make([]telemetry.Sample, len(m.vals))
	for i := range pairs {
		pairs[i] = telemetry.Sample{Offset: m.offs[i], Value: m.vals[i]}
	}
	slices.SortStableFunc(pairs, compareSampleOffsets)
	grid := true
	for i, p := range pairs {
		m.offs[i], m.vals[i] = p.Offset, p.Value
		if p.Offset != time.Duration(i)*telemetry.DefaultPeriod {
			grid = false
		}
	}
	if grid {
		m.offs = nil
	}
	m.unsorted = false
}

// compareSampleOffsets mirrors telemetry's comparator: a top-level
// function, so SortStableFunc runs without a closure capture.
func compareSampleOffsets(a, b telemetry.Sample) int { return cmp.Compare(a.Offset, b.Offset) }

// jobMem is one job's memtable state.
type jobMem struct {
	id       string
	nodes    int
	finished bool
	label    string
	seq      uint64
	samples  int64
	lastOff  time.Duration
	series   []*memSeries
	idx      map[seriesKey]int
}

func newJobMem(id string, nodes int) *jobMem {
	return &jobMem{id: id, nodes: nodes, idx: make(map[seriesKey]int)}
}

func (j *jobMem) seriesFor(metric string, node int) *memSeries {
	k := seriesKey{metric, node}
	if i, ok := j.idx[k]; ok {
		return j.series[i]
	}
	ms := &memSeries{metric: metric, node: node}
	j.idx[k] = len(j.series)
	j.series = append(j.series, ms)
	return ms
}

func (j *jobMem) appendRun(metric string, node int, offs []time.Duration, vals []float64) {
	j.seriesFor(metric, node).appendRun(offs, vals)
	j.samples += int64(len(vals))
	for _, off := range offs {
		if off > j.lastOff {
			j.lastOff = off
		}
	}
}

// bytes estimates the memtable footprint of the job, for the
// auto-flush threshold.
func (j *jobMem) bytes() int64 { return j.samples * 16 }

// Store is the embedded durable telemetry store: a WAL for live jobs,
// immutable memory-mapped segment files for finished executions, and
// the memtable bridging them. All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options
	fs  vfs.FS // == opt.FS, for brevity

	mu sync.Mutex
	// syncMu serializes Commit's off-lock fsyncs; see Commit.
	syncMu    sync.Mutex
	flushCond *sync.Cond
	// lock holds the directory's exclusive flock (nil on non-unix).
	lock     io.Closer
	w        *wal
	live     map[string]*jobMem
	pending  []*jobMem // finished, awaiting segment flush (in finish order)
	segs     []*segment
	nextSeg  int
	nextSeq  uint64
	flushing bool
	closed   bool
	bg       sync.WaitGroup

	appended     int64
	commits      int64
	flushes      int64
	replayed     int64
	qWALBytes    int64
	qSegs        int64
	pendBytes    int64
	recRetried   int64
	recDuration  time.Duration
	lastFlushErr error
	// failed poisons the store after a WAL write/fsync failure or a
	// half-completed WAL swap: the buffered bytes or the log file
	// itself can no longer be trusted to match the memtable, and a
	// later fsync could silently persist a record whose caller was
	// told it failed. Every subsequent mutation refuses with this
	// error; the only recovery is a restart, which replays whatever
	// actually reached the disk.
	failed error
	// readonly is the disk-full demotion: like failed it refuses every
	// mutation (the WAL buffer after an ENOSPC is as untrustworthy as
	// after an EIO), but it is errors.Is-distinguishable as transient —
	// reads keep working, callers shed writes with a retryable error,
	// and a supervisor reopens once space frees instead of alarming.
	readonly error
}

// failLocked records the first failure and returns the current one,
// classifying out-of-space conditions (transient, read-only mode)
// apart from I/O errors and corruption (permanent, poisoned). Called
// with mu held.
func (s *Store) failLocked(err error) error {
	if s.failed == nil && isDiskFull(err) {
		return s.readOnlyLocked(err)
	}
	if s.failed == nil {
		s.failed = fmt.Errorf("tsdb: store failed, restart to recover: %w", err)
	}
	return s.failed
}

// readOnlyLocked records the disk-full demotion. Called with mu held.
func (s *Store) readOnlyLocked(err error) error {
	if s.readonly == nil {
		s.readonly = fmt.Errorf("%w (%w): %v", ErrReadOnly, ErrDiskFull, err)
	}
	return s.readonly
}

// refuseLocked is the refusal every mutation opens with: ErrClosed
// after Close, the poisoning or disk-full error while unhealthy, nil
// while the store accepts writes. Called with mu held.
func (s *Store) refuseLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.failed != nil:
		return s.failed
	}
	return s.readonly
}

// isDiskFull classifies an error as out-of-space (ENOSPC/EDQUOT or a
// watermark refusal) — the transient class that demotes to read-only
// instead of poisoning.
func isDiskFull(err error) bool {
	return errors.Is(err, ErrDiskFull) || vfs.IsDiskFull(err)
}

// Open opens (or creates) a store in dir with default options,
// replaying the WAL and mapping every valid segment. Torn WAL tails
// and invalid segment files are quarantined, never silently dropped.
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with explicit options. Recovery I/O is
// fault-tolerant: transient failures retry with bounded backoff
// (Options.RecoverRetries/RecoverBackoff), torn or rotted artifacts
// are quarantined precisely, and Open errors only when recovery is
// truly impossible — the WAL unreadable past the retry budget, the
// directory unlockable, or the disk refusing the quarantine itself.
func OpenOptions(dir string, opt Options) (*Store, error) {
	start := time.Now()
	opt = opt.withDefaults()
	fs := opt.FS
	s := &Store{
		dir:  dir,
		opt:  opt,
		fs:   fs,
		live: make(map[string]*jobMem),
	}
	s.flushCond = sync.NewCond(&s.mu)
	if err := s.retryRecovery(func() error { return fs.MkdirAll(dir, 0o755) }, nil); err != nil {
		return nil, err
	}
	err := s.retryRecovery(func() error {
		lock, lerr := fs.Lock(dir)
		s.lock = lock
		return lerr
	}, func(err error) bool { return !errors.Is(err, vfs.ErrLocked) })
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		s.closeSegments()
		s.unlockDir()
		return nil, err
	}
	if err := s.openSegments(); err != nil {
		return fail(err)
	}
	if err := s.replay(); err != nil {
		return fail(err)
	}
	err = s.retryRecovery(func() error {
		w, werr := openWAL(fs, filepath.Join(dir, walName))
		s.w = w
		return werr
	}, nil)
	if err != nil {
		return fail(err)
	}
	s.recDuration = time.Since(start)
	return s, nil
}

// openSegments scans dir for segment files, mapping the valid ones and
// quarantining (renaming *.corrupt) the rest. Leftover temp files from
// an interrupted flush are removed: the rename never happened, so the
// WAL still holds their contents. Transient I/O failures retry within
// the recovery budget; only a segment that still cannot be mapped —
// or fails validation, which no retry changes — is quarantined.
func (s *Store) openSegments() error {
	var ents []os.DirEntry
	err := s.retryRecovery(func() error {
		var rerr error
		ents, rerr = s.fs.ReadDir(s.dir)
		return rerr
	}, nil)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, ".tmp") {
			s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			continue
		}
		path := filepath.Join(s.dir, name)
		var g *segment
		err = s.retryRecovery(func() error {
			var oerr error
			g, oerr = openSegment(s.fs, path)
			return oerr
		}, func(err error) bool { return errors.Is(err, errSegIO) })
		if err != nil {
			// Quarantine precisely: this segment — torn, rotted, or
			// unreadable past the retry budget — must neither crash the
			// store nor be mistaken for an empty one. The rename gets
			// its own retry budget; if even that fails the segment is
			// merely skipped this run and the next Open retries it.
			s.retryRecovery(func() error {
				return s.fs.Rename(path, path+".corrupt")
			}, nil)
			s.qSegs++
			continue
		}
		s.segs = append(s.segs, g)
		if num >= s.nextSeg {
			s.nextSeg = num + 1
		}
		for i := range g.footer.Execs {
			if seq := g.footer.Execs[i].Seq; seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].path < s.segs[j].path })
	return nil
}

// replay rebuilds the memtable from the WAL, quarantining a torn tail.
// Finished jobs whose sequence number already appears in a segment
// were flushed before the crash (the crash hit between the segment
// rename and the WAL compaction) and are dropped rather than
// duplicated.
func (s *Store) replay() error {
	path := filepath.Join(s.dir, walName)
	var data []byte
	err := s.retryRecovery(func() error {
		var rerr error
		data, rerr = s.fs.ReadFile(path)
		return rerr
	}, func(err error) bool { return !errors.Is(err, os.ErrNotExist) })
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		// The WAL exists but cannot be read past the retry budget:
		// acknowledged data is unreachable, so recovery is truly
		// impossible — quarantining here would silently lose it.
		return err
	}
	flushed := make(map[uint64]bool)
	for _, g := range s.segs {
		for i := range g.footer.Execs {
			flushed[g.footer.Execs[i].Seq] = true
		}
	}
	good, records, replayErr := replayWAL(data, func(rec walRecord) {
		switch rec.Type {
		case recRegister:
			s.live[rec.Job] = newJobMem(rec.Job, rec.Nodes)
		case recRun:
			if j := s.live[rec.Job]; j != nil {
				j.appendRun(rec.Metric, rec.Node, rec.Offs, rec.Vals)
			}
		case recFinish:
			if rec.Seq >= s.nextSeq {
				s.nextSeq = rec.Seq + 1
			}
			j := s.live[rec.Job]
			if j == nil {
				return
			}
			delete(s.live, rec.Job)
			if flushed[rec.Seq] {
				return // already durable in a segment
			}
			j.finished, j.seq, j.label = true, rec.Seq, rec.Label
			s.pending = append(s.pending, j)
			s.pendBytes += j.bytes()
		case recDrop:
			delete(s.live, rec.Job)
		}
	})
	s.replayed = records
	if replayErr != nil && good < int64(len(data)) {
		// The quarantine itself runs on the disk being recovered from,
		// so it gets the same retry budget. Appending the tail twice
		// (a retry after a failure past the quarantine write) is
		// harmless: the quarantine file is forensic, not replayed.
		var q int64
		qerr := s.retryRecovery(func() error {
			var e error
			q, e = quarantineTail(s.fs, s.dir, path, data, good)
			return e
		}, nil)
		if qerr != nil {
			return fmt.Errorf("tsdb: quarantine torn WAL tail: %w", qerr)
		}
		s.qWALBytes = q
	}
	return nil
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// Options reports the (defaulted) options the store was opened with —
// what a supervisor needs to reopen the same store after a failure.
func (s *Store) Options() Options { return s.opt }

// Failed reports the poisoning error, or nil while the store is
// healthy. A non-nil result is permanent: only a reopen recovers.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// ReadOnly reports the disk-full demotion error (errors.Is ErrReadOnly
// and ErrDiskFull), or nil while the store accepts writes. Unlike
// Failed, the condition is transient: reads keep working, and a
// reopen after space frees resumes writes.
func (s *Store) ReadOnly() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readonly
}

// DiskFree reports the free bytes on the store's filesystem, ok=false
// when the platform cannot tell.
func (s *Store) DiskFree() (uint64, bool) {
	free, err := s.fs.Free(s.dir)
	return free, err == nil
}

// diskLow reports whether free space is below the configured
// watermark (0 disables). An unanswerable query counts as "not low" —
// the hard ENOSPC path still protects the store.
func (s *Store) diskLow() (bool, uint64) {
	if s.opt.DiskLowBytes <= 0 {
		return false, 0
	}
	free, err := s.fs.Free(s.dir)
	if err != nil {
		return false, 0
	}
	return free < uint64(s.opt.DiskLowBytes), free
}

// Register starts tracking a live job. The record is made durable
// before returning.
func (s *Store) Register(job string, nodes int) error {
	if job == "" || nodes <= 0 {
		return fmt.Errorf("tsdb: bad registration (job %q, nodes %d)", job, nodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(); err != nil {
		return err
	}
	if _, ok := s.live[job]; ok {
		return fmt.Errorf("%w: %q", ErrJobExists, job)
	}
	//efdvet:ignore lockdiscipline rare lifecycle record; the documented simple form, see commitLocked
	s.w.encodeRegister(job, nodes)
	if err := s.w.append(); err != nil {
		return s.failLocked(err)
	}
	s.appended++
	if err := s.commitLocked(); err != nil {
		return err
	}
	s.live[job] = newJobMem(job, nodes)
	return nil
}

// runEnc is the pooled scratch the ingest path encodes into outside
// the store mutex.
type runEnc struct{ payload, frames []byte }

var runEncPool = sync.Pool{New: func() any { return new(runEnc) }}

// Append logs and buffers one (metric, node) sample run for a live
// job. It does not fsync — call Commit once per acknowledged batch
// (the fsync-batching contract that keeps per-run cost flat). The
// record encoding and CRC happen outside the store mutex (they need
// no store state), so concurrent appenders for unrelated jobs only
// serialize on the buffered write itself; runs longer than
// walRunChunk are split across records, keeping every frame far below
// the replayer's size bound.
func (s *Store) Append(job, metric string, node int, offs []time.Duration, vals []float64) error {
	if len(offs) != len(vals) {
		return fmt.Errorf("tsdb: Append column lengths differ (%d offsets, %d values)", len(offs), len(vals))
	}
	if len(vals) == 0 {
		return nil
	}
	var start time.Time
	if s.opt.Inst.AppendSeconds != nil {
		start = time.Now()
	}
	enc := runEncPool.Get().(*runEnc)
	enc.frames = enc.frames[:0]
	records := int64(0)
	for base := 0; base < len(vals); base += walRunChunk {
		end := base + walRunChunk
		if end > len(vals) {
			end = len(vals)
		}
		enc.payload = appendRunPayload(enc.payload[:0], job, metric, node, offs[base:end], vals[base:end])
		enc.frames = appendFramed(enc.frames, enc.payload)
		records++
	}
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		runEncPool.Put(enc)
	}()
	if err := s.refuseLocked(); err != nil {
		return err
	}
	j := s.live[job]
	if j == nil {
		return fmt.Errorf("%w: %q", ErrUnknownJob, job)
	}
	if _, err := s.w.bw.Write(enc.frames); err != nil {
		return s.failLocked(err)
	}
	s.w.size += int64(len(enc.frames))
	s.w.appendGen += uint64(records)
	s.appended += records
	j.appendRun(metric, node, offs, vals)
	if !start.IsZero() {
		s.opt.Inst.AppendSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// Commit makes every append so far durable: one buffered-write flush
// plus one fsync for however many Appends preceded it. It is a true
// group commit — committers serialize on their own mutex, a waiting
// committer whose appends the previous fsync already covered skips
// its fsync entirely, and the fsync itself runs outside the store
// mutex, so concurrent Appends (the ingest hot path) never stall
// behind the disk.
func (s *Store) Commit() error {
	var start time.Time
	if s.opt.Inst.CommitSeconds != nil {
		start = time.Now()
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if err := s.refuseLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	w := s.w
	gen := w.appendGen
	if w.syncGen >= gen { // everything already durable (group commit)
		s.commits++
		s.mu.Unlock()
		if !start.IsZero() {
			s.opt.Inst.CommitSeconds.Observe(time.Since(start).Seconds())
		}
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		err = s.failLocked(err)
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	var syncErr error
	if !s.opt.NoSync {
		syncErr = w.f.Sync() // off-lock: appends proceed meanwhile
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if syncErr != nil {
		if s.w != w {
			// A concurrent flush compacted the WAL out from under the
			// sync (os.File makes the racing Sync/Close safe, it just
			// errors). The compacted log contains and has fsynced
			// every record this commit covers, so the commit is
			// durable — via the new file.
			syncErr = nil
		} else {
			return s.failLocked(syncErr)
		}
	}
	if w.syncGen < gen {
		if h := s.opt.Inst.CommitRecords; h != nil {
			h.Observe(float64(gen - w.syncGen))
		}
		w.syncGen = gen
	}
	s.commits++
	if !start.IsZero() {
		s.opt.Inst.CommitSeconds.Observe(time.Since(start).Seconds())
	}
	return nil
}

// commitLocked flushes and fsyncs the WAL under the store mutex — the
// simple form used by the rare per-job lifecycle records (Register,
// Finish, Drop); the batch ingest path goes through Commit, which
// fsyncs off-lock. Any failure poisons the store: records already
// handed to the buffered writer cannot be un-written, so a later
// successful fsync would durably persist operations whose callers
// were told they failed — refusing all further writes until a restart
// re-derives state from the disk is the only honest answer (the
// fsyncgate lesson).
func (s *Store) commitLocked() error {
	if err := s.refuseLocked(); err != nil {
		return err
	}
	if s.opt.NoSync {
		if err := s.w.bw.Flush(); err != nil {
			return s.failLocked(err)
		}
		s.commits++
		return nil
	}
	//efdvet:ignore lockdiscipline the lifecycle commit form is deliberately on-lock; batches use Commit
	if err := s.w.sync(); err != nil {
		return s.failLocked(err)
	}
	s.commits++
	return nil
}

// Finish marks a live job as a finished execution with the given label
// (may be empty). The job moves to the pending-flush set, becomes
// visible as a stored execution immediately, and is written to a
// segment by the next flush; the finish record is made durable before
// returning. Crossing the flush threshold kicks a background flush.
func (s *Store) Finish(job, label string) error {
	s.mu.Lock()
	if err := s.refuseLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	j := s.live[job]
	if j == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownJob, job)
	}
	seq := s.nextSeq
	s.nextSeq++
	//efdvet:ignore lockdiscipline rare lifecycle record; the documented simple form, see commitLocked
	s.w.encodeFinish(job, seq, label)
	if err := s.w.append(); err != nil {
		err = s.failLocked(err)
		s.mu.Unlock()
		return err
	}
	s.appended++
	if err := s.commitLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.live, job)
	j.finished, j.seq, j.label = true, seq, label
	s.pending = append(s.pending, j)
	s.pendBytes += j.bytes()
	kick := s.opt.FlushBytes > 0 && s.pendBytes >= s.opt.FlushBytes && !s.flushing
	if kick {
		s.bg.Add(1)
	}
	s.mu.Unlock()
	if kick {
		go func() {
			defer s.bg.Done()
			s.Flush()
		}()
	}
	return nil
}

// Drop deletes a live job outright; its samples will not survive the
// next WAL compaction and it never becomes a stored execution.
func (s *Store) Drop(job string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refuseLocked(); err != nil {
		return err
	}
	if _, ok := s.live[job]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, job)
	}
	//efdvet:ignore lockdiscipline rare lifecycle record; the documented simple form, see commitLocked
	s.w.encodeDrop(job)
	if err := s.w.append(); err != nil {
		return s.failLocked(err)
	}
	s.appended++
	if err := s.commitLocked(); err != nil {
		return err
	}
	delete(s.live, job)
	return nil
}

// IngestExecution stores a complete execution's telemetry directly as
// a segment — the bulk path used by the CSV converter. It bypasses the
// WAL (the data is already on disk in source form) and is durable when
// it returns.
func (s *Store) IngestExecution(job, label string, ns *telemetry.NodeSet) error {
	if job == "" {
		return errors.New("tsdb: empty job ID")
	}
	nodes := ns.Nodes()
	if len(nodes) == 0 {
		return errors.New("tsdb: execution has no telemetry")
	}
	jm := newJobMem(job, nodes[len(nodes)-1]+1)
	for _, node := range nodes {
		for _, metric := range ns.Metrics() {
			series := ns.Get(node, metric)
			if series == nil {
				continue
			}
			n := series.Len()
			vals := make([]float64, n)
			copy(vals, series.ValuesView())
			offs := make([]time.Duration, n)
			grid := true
			for i := 0; i < n; i++ {
				offs[i] = series.OffsetAt(i)
				if offs[i] != time.Duration(i)*telemetry.DefaultPeriod {
					grid = false
				}
			}
			ms := jm.seriesFor(metric, node)
			if grid {
				offs = nil
			}
			ms.offs, ms.vals, ms.unsorted = offs, vals, !series.Sorted()
			jm.samples += int64(n)
			if d := series.Duration(); d > jm.lastOff {
				jm.lastOff = d
			}
		}
	}
	s.mu.Lock()
	if err := s.refuseLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	jm.finished, jm.seq, jm.label = true, s.nextSeq, label
	s.nextSeq++
	s.pending = append(s.pending, jm)
	s.pendBytes += jm.bytes()
	s.mu.Unlock()
	return s.Flush()
}

// Flush writes every pending finished execution into a new immutable
// segment, maps it, and compacts the WAL down to the still-live jobs.
// Concurrent callers serialize; appends to live jobs proceed while the
// segment file is being written.
func (s *Store) Flush() error {
	var start time.Time
	if s.opt.Inst.FlushSeconds != nil {
		start = time.Now()
	}
	s.mu.Lock()
	for s.flushing {
		s.flushCond.Wait()
	}
	if err := s.refuseLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return nil
	}
	if low, free := s.diskLow(); low {
		// Proactive headroom: refuse to start a segment write that
		// would likely ENOSPC midway. The batch stays pending and
		// remains durable via the WAL; this does not demote the store —
		// small acknowledged WAL appends keep going until a real
		// ENOSPC.
		err := fmt.Errorf("tsdb: flush refused: %w: %d bytes free below %d-byte watermark",
			ErrDiskFull, free, s.opt.DiskLowBytes)
		s.lastFlushErr = err
		s.mu.Unlock()
		return err
	}
	batch := append([]*jobMem(nil), s.pending...)
	for _, j := range batch {
		for _, ms := range j.series {
			ms.sortSamples() // segments store sorted columns
		}
	}
	name := segName(s.nextSeg)
	s.nextSeg++
	s.flushing = true
	s.mu.Unlock()

	err := writeSegment(s.fs, s.dir, name, batch, s.opt.HistBins)
	var g *segment
	if err == nil {
		g, err = openSegment(s.fs, filepath.Join(s.dir, name))
		if err != nil {
			// The renamed file exists but cannot be mapped; the batch
			// stays pending (and in the WAL), so the orphan must go or
			// the retry would store every execution twice. If even the
			// remove fails, poison the store rather than risk the
			// duplicate surfacing after a restart maps both files.
			if rmErr := s.fs.Remove(filepath.Join(s.dir, name)); rmErr != nil {
				s.mu.Lock()
				err = s.failLocked(errors.Join(err, rmErr))
				s.mu.Unlock()
			}
		}
	}

	s.mu.Lock()
	s.flushing = false
	s.flushCond.Broadcast()
	defer s.mu.Unlock()
	if err != nil {
		if s.failed == nil && isDiskFull(err) {
			// The disk is full: demote to read-only (reads keep
			// serving, writes shed with a retryable error) instead of
			// leaving the next WAL append to discover it the hard way.
			// The batch stays pending and durable via the WAL; the
			// returned error carries the ErrReadOnly/ErrDiskFull chain.
			err = s.readOnlyLocked(err)
		}
		s.lastFlushErr = fmt.Errorf("tsdb: flush: %w", err)
		return s.lastFlushErr
	}
	s.lastFlushErr = nil
	s.segs = append(s.segs, g)
	s.flushes++
	if !start.IsZero() {
		s.opt.Inst.FlushSeconds.Observe(time.Since(start).Seconds())
	}
	s.opt.Inst.FlushBytes.Observe(float64(len(g.m.Data)))
	inBatch := make(map[*jobMem]bool, len(batch))
	for _, j := range batch {
		inBatch[j] = true
		s.pendBytes -= j.bytes()
	}
	rest := s.pending[:0]
	for _, j := range s.pending {
		if !inBatch[j] {
			rest = append(rest, j)
		}
	}
	s.pending = rest
	if err := s.compactWALLocked(); err != nil {
		// The segment is durable and the WAL still replays (it merely
		// carries records for already-flushed executions, which replay
		// deduplicates by sequence number); surface the error without
		// losing data.
		s.lastFlushErr = fmt.Errorf("tsdb: WAL compaction after flush: %w", err)
		return s.lastFlushErr
	}
	return nil
}

// walRunChunk bounds the samples per run record — both the live
// ingest path (Store.Append) and the compactor split longer runs with
// it, keeping every frame far below walMaxRecord. A variable so tests
// can force multi-record series.
var walRunChunk = 1 << 20

// compactWALLocked rewrites the WAL to contain only the memtable's
// current contents (live jobs plus pending finished ones), atomically
// replacing the old log. Called with mu held, which stalls Append for
// the duration — the price of a consistent snapshot while the log
// keeps moving. The stall is bounded by the memtable size (live jobs
// only, segments excluded) and paid once per flush; a WAL-epoch scheme
// that rewrites off-lock is the known follow-up if it ever shows up in
// ingest tail latencies.
func (s *Store) compactWALLocked() error {
	tmpPath := filepath.Join(s.dir, walName+".tmp")
	nw, err := func() (*wal, error) {
		s.fs.Remove(tmpPath)
		return openWAL(s.fs, tmpPath)
	}()
	if err != nil {
		return err
	}
	var gridScratch []time.Duration
	writeJob := func(j *jobMem) error {
		nw.encodeRegister(j.id, j.nodes)
		if err := nw.append(); err != nil {
			return err
		}
		for _, ms := range j.series {
			offs := ms.offs
			if offs == nil {
				if cap(gridScratch) < len(ms.vals) {
					gridScratch = make([]time.Duration, len(ms.vals))
				}
				offs = gridScratch[:len(ms.vals)]
				for i := range offs {
					offs[i] = time.Duration(i) * telemetry.DefaultPeriod
				}
			}
			// Chunked: one giant run record for a long-lived series
			// could exceed the replayer's walMaxRecord frame bound (or
			// even the uint32 frame length) and read as torn on the
			// next restart. Replaying several consecutive runs rebuilds
			// the identical memtable state.
			vals := ms.vals
			for len(vals) > 0 {
				n := len(vals)
				if n > walRunChunk {
					n = walRunChunk
				}
				nw.encodeRun(j.id, ms.metric, ms.node, offs[:n], vals[:n])
				if err := nw.append(); err != nil {
					return err
				}
				offs, vals = offs[n:], vals[n:]
			}
		}
		if j.finished {
			nw.encodeFinish(j.id, j.seq, j.label)
			if err := nw.append(); err != nil {
				return err
			}
		}
		return nil
	}
	// Pending executions must precede live jobs: a finished job's ID may
	// have been re-registered as a new live incarnation, and replay
	// applies records in order — the pending incarnation registers,
	// runs, and finishes (leaving the live map), then the live
	// incarnation registers cleanly. The reverse order would clobber
	// the live job's state with the pending register and delete it at
	// the finish.
	for _, j := range s.pending {
		if err := writeJob(j); err != nil {
			nw.close()
			return err
		}
	}
	ids := make([]string, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := writeJob(s.live[id]); err != nil {
			nw.close()
			return err
		}
	}
	if err := nw.bw.Flush(); err != nil {
		nw.close()
		return err
	}
	if !s.opt.NoSync {
		//efdvet:ignore lockdiscipline WAL compaction is a documented bounded stop-the-world, see the function doc
		if err := nw.f.Sync(); err != nil {
			nw.close()
			return err
		}
	}
	if err := nw.f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmpPath, filepath.Join(s.dir, walName)); err != nil {
		return err
	}
	// Past the rename the old WAL inode is unlinked: any failure from
	// here on would leave s.w fsyncing an orphaned file while every
	// Append reports success, so it must poison the store instead of
	// merely erroring.
	if !s.opt.NoSync {
		//efdvet:ignore lockdiscipline WAL compaction is a documented bounded stop-the-world, see the function doc
		if err := s.fs.SyncDir(s.dir); err != nil {
			return s.failLocked(err)
		}
	}
	old := s.w
	w, err := openWAL(s.fs, filepath.Join(s.dir, walName))
	if err != nil {
		return s.failLocked(err)
	}
	s.w = w
	old.close() // superseded log; its buffered tail no longer matters
	return nil
}

// Close flushes pending executions, syncs the WAL, and releases every
// mapping. A failed flush does not abort the close: the WAL (which
// still holds the unflushed executions — they replay on the next
// open) is synced and closed and the mappings released regardless,
// with all errors joined. The store must not be used afterwards.
func (s *Store) Close() error {
	s.bg.Wait()
	flushErr := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.refuseLocked()
	if errors.Is(err, ErrClosed) {
		return flushErr
	}
	s.closed = true
	if err != nil {
		// Poisoned or read-only: the buffered tail holds records whose
		// callers were told they failed. Flushing or syncing it now
		// would durably persist them after all — close the descriptor
		// without flushing and let the next Open replay only what was
		// acknowledged.
		return errors.Join(flushErr, err, s.w.f.Close(), s.closeSegments(), s.unlockDir())
	}
	var syncErr error
	if !s.opt.NoSync {
		syncErr = s.w.sync() //efdvet:ignore lockdiscipline final sync at Close; the store accepts no further appends
	} else {
		syncErr = s.w.bw.Flush()
	}
	return errors.Join(flushErr, syncErr, s.w.close(), s.closeSegments(), s.unlockDir())
}

// unlockDir releases the directory flock (closing the fd drops it).
func (s *Store) unlockDir() error {
	if s.lock == nil {
		return nil
	}
	err := s.lock.Close()
	s.lock = nil
	return err
}

func (s *Store) closeSegments() error {
	var firstErr error
	for _, g := range s.segs {
		if err := g.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segs = nil
	return firstErr
}

// --- read side --------------------------------------------------------

// SeriesRun is one series' accumulated columns. Offsets are always
// materialized (grid series synthesize theirs), values may alias store
// memory: treat both as read-only and do not hold them across further
// store mutations.
type SeriesRun struct {
	Metric  string
	Node    int
	Offsets []time.Duration
	Values  []float64
}

// LiveJob is the recovery view of one live job, with enough state to
// rebuild a streaming recognizer exactly.
type LiveJob struct {
	ID         string
	Nodes      int
	Samples    int64
	LastOffset time.Duration
	Series     []SeriesRun
}

// Live returns the live jobs sorted by ID — the server replays these
// into fresh recognition streams at startup.
func (s *Store) Live() []LiveJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveJob, 0, len(s.live))
	for _, j := range s.live {
		lj := LiveJob{ID: j.id, Nodes: j.nodes, Samples: j.samples, LastOffset: j.lastOff}
		for _, ms := range j.series {
			offs := ms.offs
			if offs == nil {
				offs = make([]time.Duration, len(ms.vals))
				for i := range offs {
					offs[i] = time.Duration(i) * telemetry.DefaultPeriod
				}
			}
			lj.Series = append(lj.Series, SeriesRun{Metric: ms.metric, Node: ms.node, Offsets: offs, Values: ms.vals})
		}
		out = append(out, lj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExecInfo describes one stored execution.
type ExecInfo struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	Nodes   int    `json:"nodes"`
	Seq     uint64 `json:"seq"`
	Samples int64  `json:"samples"`
	// Stored is true once the execution sits in an immutable segment;
	// false while it is pending the next flush (still durable via the
	// WAL).
	Stored bool `json:"stored"`
}

// Executions lists every stored execution (segments first, then
// pending), sorted by sequence number.
func (s *Store) Executions() []ExecInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ExecInfo
	for _, g := range s.segs {
		for i := range g.footer.Execs {
			e := &g.footer.Execs[i]
			out = append(out, ExecInfo{ID: e.Job, Label: e.Label, Nodes: e.Nodes, Seq: e.Seq, Samples: e.Samples, Stored: true})
		}
	}
	for _, j := range s.pending {
		out = append(out, ExecInfo{ID: j.id, Label: j.label, Nodes: j.nodes, Seq: j.seq, Samples: j.samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// materializeMem copies a memtable job into a NodeSet (memtable
// columns keep mutating under ingest, so live reads get a snapshot),
// sealing on request.
func materializeMem(j *jobMem, seal bool) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	for _, ms := range j.series {
		vals := make([]float64, len(ms.vals))
		copy(vals, ms.vals)
		var offs []time.Duration
		if ms.offs != nil {
			offs = ms.offs // NewSeriesFromColumns copies non-grid offsets
		}
		series := telemetry.NewSeriesFromColumns(ms.metric, ms.node, offs, vals)
		if seal {
			series.Seal()
		}
		ns.Put(series)
	}
	return ns
}

// ExecutionSeries materializes the stored execution with the given ID
// (the highest-sequence one, should the ID have been reused). Segment
// executions are served as zero-copy views over the mapping, sealed
// for O(1) window queries; pending ones are copied out of the
// memtable. The NodeSet must be treated as read-only and does not
// survive Close.
func (s *Store) ExecutionSeries(job string) (*telemetry.NodeSet, error) {
	return s.executionSeries(job, true)
}

func (s *Store) executionSeries(job string, seal bool) (*telemetry.NodeSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bestSeg *segment
	var bestExec *segExec
	for _, g := range s.segs {
		if e := g.exec(job); e != nil && (bestExec == nil || e.Seq > bestExec.Seq) {
			bestSeg, bestExec = g, e
		}
	}
	var bestPend *jobMem
	for _, j := range s.pending {
		if j.id == job && (bestPend == nil || j.seq > bestPend.seq) {
			bestPend = j
		}
	}
	switch {
	case bestPend != nil && (bestExec == nil || bestPend.seq > bestExec.Seq):
		return materializeMem(bestPend, seal), nil
	case bestExec != nil:
		s.opt.Inst.MmapReads.Add(1)
		return bestSeg.nodeSet(bestExec, seal), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownExecution, job)
}

// ExecutionHist returns the persisted histogram sketch of one stored
// series — whole-series percentiles without touching the columns, and
// the exact edges for re-sealing a mapped series via SealHistEdges.
func (s *Store) ExecutionHist(job, metric string, node int) (telemetry.HistSketch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *segExec
	for _, g := range s.segs {
		if e := g.exec(job); e != nil && (best == nil || e.Seq > best.Seq) {
			best = e
		}
	}
	if best == nil {
		return telemetry.HistSketch{}, false
	}
	for i := range best.Series {
		ss := &best.Series[i]
		if ss.Metric == metric && ss.Node == node {
			return ss.Hist, true
		}
	}
	return telemetry.HistSketch{}, false
}

// Series resolves a job ID to its telemetry: a snapshot of the live
// memtable state, or the stored execution when the job has finished.
// live reports which source answered. The series come unsealed — this
// is the raw-dump path (the server's series endpoint); callers that
// will run window queries should use ExecutionSeries or Seal
// themselves, paying the prefix-sum pass only when it buys something.
func (s *Store) Series(job string) (ns *telemetry.NodeSet, live bool, err error) {
	s.mu.Lock()
	if j := s.live[job]; j != nil {
		ns = materializeMem(j, false)
		s.mu.Unlock()
		return ns, true, nil
	}
	s.mu.Unlock()
	ns, err = s.executionSeries(job, false)
	return ns, false, err
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		LiveJobs:            len(s.live),
		PendingJobs:         len(s.pending),
		Segments:            len(s.segs),
		AppendedRecords:     s.appended,
		Commits:             s.commits,
		Flushes:             s.flushes,
		ReplayedRecords:     s.replayed,
		QuarantinedWALBytes: s.qWALBytes,
		QuarantinedSegments: s.qSegs,
	}
	if s.lastFlushErr != nil {
		st.LastFlushError = s.lastFlushErr.Error()
	}
	if s.w != nil {
		st.WALBytes = s.w.size
	}
	for _, g := range s.segs {
		st.MmapBytes += int64(len(g.m.Data))
		st.Executions += len(g.footer.Execs)
	}
	st.Executions += len(s.pending)
	return st
}
