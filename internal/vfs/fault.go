package vfs

import (
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"math/rand"
)

// ErrCrashed is returned by every operation of a Fault filesystem that
// has crashed (CrashAt/Crash): the simulated process is dead and no
// further I/O — including the flush a graceful close would do —
// reaches the disk. Close still closes the underlying descriptor (so
// mappings unmap and flocks release, as a real process exit would),
// but reports ErrCrashed.
var ErrCrashed = errors.New("vfs: injected crash")

// ErrInjected is the default error of a Rule that fires without an
// explicit Err.
var ErrInjected = errors.New("vfs: injected fault")

// Op selects which operation class a Rule matches.
type Op uint8

const (
	OpAny Op = iota
	OpMkdir
	OpOpen   // OpenFile
	OpCreate // CreateTemp
	OpRename
	OpRemove
	OpTruncate
	OpReadFile
	OpReadDir
	OpSyncDir
	OpMap
	OpLock
	OpWrite // File.Write (and the torn-write injection point)
	OpSync  // File.Sync — the fsyncgate op
	OpClose // File.Close
	OpFree  // Free — the disk-headroom statfs query
)

// Rule is one deterministic fault: after After matching operations
// have passed through unharmed, the next Times matches (0 = every
// later match) fire. A firing rule sleeps Delay (slow I/O), then —
// when Err is set or Torn — fails the operation. A torn write writes
// a seeded-random prefix of the buffer before failing, the shape a
// crash mid-write leaves on disk.
type Rule struct {
	Op    Op
	Path  string // substring match on the operation's path; "" = any
	After int64
	Times int64
	Err   error
	Torn  bool
	Delay time.Duration
}

type activeRule struct {
	Rule
	hits  int64
	fired int64
}

// Fault wraps an FS with a seeded, deterministic fault plan. All
// methods are safe for concurrent use; rule matching is serialized, so
// a plan fires identically for a deterministic operation sequence.
type Fault struct {
	inner FS

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []*activeRule
	ops     int64
	fired   int64
	crashAt int64 // 0 = disabled
	crashed bool
	freeSet bool
	free    uint64
}

// NewFault wraps inner with an empty fault plan. seed drives every
// random choice (torn-write lengths), so a failing test reproduces
// from its logged seed.
func NewFault(inner FS, seed int64) *Fault { //efdvet:ignore deadcode test support: tsdb, efd/monitor, server and vfs fault and chaos tests
	return &Fault{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// AddRule appends one rule to the plan and returns the Fault for
// chaining. Rules are matched in insertion order; the first active
// match fires.
func (f *Fault) AddRule(r Rule) *Fault { //efdvet:ignore deadcode test support: tsdb, efd/monitor, server and vfs fault and chaos tests
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &activeRule{Rule: r})
	return f
}

// CrashAt schedules a crash when the running operation counter reaches
// n (1-based): that operation and every later one fail with
// ErrCrashed.
func (f *Fault) CrashAt(n int64) { //efdvet:ignore deadcode test support: vfs_test and tsdb fault_test
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
}

// Crash kills the filesystem immediately.
func (f *Fault) Crash() { //efdvet:ignore deadcode test support: tsdb chaos_test
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// Crashed reports whether the filesystem has crashed.
func (f *Fault) Crashed() bool { //efdvet:ignore deadcode test support: vfs_test and tsdb fault_test
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops reports the number of operations seen so far.
func (f *Fault) Ops() int64 { //efdvet:ignore deadcode test support: tsdb fault_test
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Fired reports the number of rule firings so far (injected errors,
// torn writes/reads, and delays). Chaos harnesses diff it across a
// round to prove the round actually injected faults instead of
// silently running clean.
func (f *Fault) Fired() int64 { //efdvet:ignore deadcode test support: tsdb chaos_test and efd/monitor explore_test
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// SetFree overrides what Free reports, so a test can simulate a
// filling disk without filling one. Reset restores passthrough.
func (f *Fault) SetFree(n uint64) { //efdvet:ignore deadcode test support: tsdb, efd/monitor and server disk-full tests
	f.mu.Lock()
	defer f.mu.Unlock()
	f.freeSet, f.free = true, n
}

// Reset heals the filesystem: the fault plan, any crash, and any
// SetFree override are cleared (the operation counter keeps running).
func (f *Fault) Reset() { //efdvet:ignore deadcode test support: tsdb, efd/monitor, server and vfs fault tests
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.crashed = false
	f.crashAt = 0
	f.freeSet = false
}

// decision is the outcome of gating one operation.
type decision struct {
	delay time.Duration
	err   error
	torn  bool
	// tornLen is the prefix length a torn write persists (decided
	// under the mutex so the seeded sequence is deterministic).
	tornLen int
}

// gate counts one operation against the plan and returns what to do
// with it. writeLen > 0 only for writes (torn-write prefix draw).
func (f *Fault) gate(op Op, path string, writeLen int) decision {
	f.mu.Lock()
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
	}
	if f.crashed {
		f.mu.Unlock()
		return decision{err: ErrCrashed}
	}
	var d decision
	for _, r := range f.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.hits++
		if r.hits <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		f.fired++
		d.delay = r.Delay
		if r.Err != nil || r.Torn {
			d.err = r.Err
			if d.err == nil {
				d.err = ErrInjected
			}
			d.torn = r.Torn
			if d.torn && writeLen > 0 {
				d.tornLen = f.rng.Intn(writeLen)
			}
		}
		break
	}
	f.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d
}

// --- FS surface -------------------------------------------------------

func (f *Fault) MkdirAll(path string, perm os.FileMode) error {
	if d := f.gate(OpMkdir, path, 0); d.err != nil {
		return d.err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *Fault) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if d := f.gate(OpOpen, name, 0); d.err != nil {
		return nil, d.err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: inner, fs: f, name: name}, nil
}

func (f *Fault) CreateTemp(dir, pattern string) (File, error) {
	if d := f.gate(OpCreate, dir, 0); d.err != nil {
		return nil, d.err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: inner, fs: f, name: inner.Name()}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if d := f.gate(OpRename, newpath, 0); d.err != nil {
		return d.err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if d := f.gate(OpRemove, name, 0); d.err != nil {
		return d.err
	}
	return f.inner.Remove(name)
}

func (f *Fault) Truncate(name string, size int64) error {
	if d := f.gate(OpTruncate, name, 0); d.err != nil {
		return d.err
	}
	return f.inner.Truncate(name, size)
}

// ReadFile honours Torn rules as torn reads: the caller gets a
// seeded-random prefix of the real content together with the injected
// error — the shape an EIO partway through a large read leaves in the
// caller's buffer. A recovery path that retries on error never sees
// the short data as a success.
func (f *Fault) ReadFile(name string) ([]byte, error) {
	d := f.gate(OpReadFile, name, 0)
	if d.err != nil {
		if d.torn {
			data, rerr := f.inner.ReadFile(name)
			if rerr != nil {
				return nil, rerr
			}
			return data[:f.tornPrefix(len(data))], d.err
		}
		return nil, d.err
	}
	return f.inner.ReadFile(name)
}

// tornPrefix draws a torn-read prefix length under the mutex so the
// seeded sequence stays deterministic.
func (f *Fault) tornPrefix(n int) int {
	if n == 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

func (f *Fault) ReadDir(name string) ([]os.DirEntry, error) {
	if d := f.gate(OpReadDir, name, 0); d.err != nil {
		return nil, d.err
	}
	return f.inner.ReadDir(name)
}

func (f *Fault) SyncDir(dir string) error {
	if d := f.gate(OpSyncDir, dir, 0); d.err != nil {
		return d.err
	}
	return f.inner.SyncDir(dir)
}

func (f *Fault) MapFile(name string) (*Mapping, error) {
	if d := f.gate(OpMap, name, 0); d.err != nil {
		return nil, d.err
	}
	return f.inner.MapFile(name)
}

func (f *Fault) Lock(dir string) (io.Closer, error) {
	if d := f.gate(OpLock, dir, 0); d.err != nil {
		return nil, d.err
	}
	return f.inner.Lock(dir)
}

func (f *Fault) Free(dir string) (uint64, error) {
	if d := f.gate(OpFree, dir, 0); d.err != nil {
		return 0, d.err
	}
	f.mu.Lock()
	set, free := f.freeSet, f.free
	f.mu.Unlock()
	if set {
		return free, nil
	}
	return f.inner.Free(dir)
}

// --- File surface -----------------------------------------------------

type faultFile struct {
	inner File
	fs    *Fault
	name  string
}

func (ff *faultFile) Name() string { return ff.name }

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.fs.gate(OpWrite, ff.name, len(p))
	if d.err != nil {
		if d.torn && d.tornLen > 0 {
			n, werr := ff.inner.Write(p[:d.tornLen])
			if werr != nil {
				return n, werr
			}
			return n, d.err
		}
		return 0, d.err
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if d := ff.fs.gate(OpSync, ff.name, 0); d.err != nil {
		return d.err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Stat() (os.FileInfo, error) {
	// Not an injection point (nothing durable depends on it), but a
	// crashed filesystem refuses it like everything else.
	ff.fs.mu.Lock()
	crashed := ff.fs.crashed
	ff.fs.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return ff.inner.Stat()
}

// Close always closes the underlying descriptor — a crashed process
// releases its fds, mappings, and flocks too — but reports the
// injected error when the plan says so.
func (ff *faultFile) Close() error {
	d := ff.fs.gate(OpClose, ff.name, 0)
	cerr := ff.inner.Close()
	if d.err != nil {
		return d.err
	}
	return cerr
}
