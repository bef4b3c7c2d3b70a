package monitor

// Graceful-degradation tests: the store poisons itself under the
// engine (injected fsync failures, ENOSPC) and the engine must keep
// serving — ingest succeeds memory-only, every read keeps answering,
// health reports degraded with the triggering error, and the
// background probe returns the engine to durable mode once the fault
// clears.

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/vfs"
)

// attachFaultStore opens a tsdb store in dir through a Fault fs and
// attaches it to a fresh engine with a fast probe.
func attachFaultStore(t *testing.T, dir string) (*Engine, *vfs.Fault) {
	t.Helper()
	fs := vfs.NewFault(vfs.OS{}, 1)
	st, err := tsdb.OpenOptions(dir, tsdb.Options{FS: fs, NoSync: false})
	if err != nil {
		t.Fatal(err)
	}
	e := New(testDict(t))
	e.StoreProbeInterval = 5 * time.Millisecond
	if _, err := e.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return e, fs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDegradeOnStorePoisoning is the headline degradation contract:
// an fsync failure poisons the store; the very ingest that hit it is
// still acknowledged (memory-only), later ingest and every read keep
// working, and health reports degraded with the triggering error.
func TestDegradeOnStorePoisoning(t *testing.T) {
	e, fs := attachFaultStore(t, t.TempDir())
	defer e.Close()

	jb, err := e.Register("victim", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if got := e.Health().Status; got != StatusHealthy {
		t.Fatalf("pre-fault health = %q", got)
	}

	// Permanent fsync failure: the next commit poisons the store.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	n, err := jb.Ingest(flat(6000, 2, 20))
	if err != nil {
		t.Fatalf("ingest across the poisoning failed: %v", err)
	}
	if n == 0 {
		t.Fatal("poisoned-commit ingest accepted nothing")
	}

	h := e.Health()
	if h.Status != StatusDegraded {
		t.Fatalf("health = %q, want degraded", h.Status)
	}
	if h.Error == "" {
		t.Error("degraded health carries no error")
	}
	if got := e.Stats().Health; got != StatusDegraded {
		t.Fatalf("Stats.Health = %q, want degraded", got)
	}

	// Ingest keeps working memory-only.
	if _, err := jb.Ingest(flat(6000, 2, 40)); err != nil {
		t.Fatalf("degraded ingest: %v", err)
	}
	// New registrations are admitted memory-only.
	jb2, err := e.Register("during-outage", 2)
	if err != nil {
		t.Fatalf("degraded Register: %v", err)
	}
	if _, err := jb2.Ingest(flat(7000, 2, 5)); err != nil {
		t.Fatalf("degraded ingest on new job: %v", err)
	}
	// Reads keep answering.
	if _, err := jb.Result(); err != nil {
		t.Fatalf("degraded Result: %v", err)
	}
	if lst, err := e.Jobs(0, 10); err != nil || lst.Total != 2 {
		t.Fatalf("degraded Jobs = %+v, %v", lst, err)
	}
	if _, err := e.Executions(); err != nil {
		t.Fatalf("degraded Executions: %v", err)
	}
	// Labelling still learns, memory-only.
	feedUntilComplete(t, jb)
	if _, err := jb.Label("ft", "X"); err != nil {
		t.Fatalf("degraded Label: %v", err)
	}
}

// feedUntilComplete feeds flat telemetry until the stream's window
// closes so the job becomes labellable.
func feedUntilComplete(t *testing.T, jb *Job) {
	t.Helper()
	for upTo := 60; upTo <= 1200; upTo += 60 {
		done, err := jb.Complete()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
		if _, err := jb.Ingest(flat(6000, 2, upTo)); err != nil {
			t.Fatal(err)
		}
	}
	done, _ := jb.Complete()
	if !done {
		t.Fatal("job never completed")
	}
}

// TestProbeReopensStore: once the fault clears, the background probe
// reopens the store and the engine returns to durable mode — new jobs
// are WAL-backed again, jobs that lived through the outage stay
// memory-only.
func TestProbeReopensStore(t *testing.T) {
	dir := t.TempDir()
	e, fs := attachFaultStore(t, dir)
	defer e.Close()

	jb, err := e.Register("survivor", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	if _, err := jb.Ingest(flat(6000, 2, 20)); err != nil {
		t.Fatal(err)
	}
	if e.Health().Status != StatusDegraded {
		t.Fatal("engine did not degrade")
	}
	// Samples fed during the outage, then heal the disk.
	if _, err := jb.Ingest(flat(6000, 2, 30)); err != nil {
		t.Fatal(err)
	}
	fs.Reset()
	waitFor(t, "probe reopen", func() bool { return e.Health().Status == StatusHealthy })

	h := e.Health()
	if h.StoreReopens == 0 || h.StoreReopenAttempts == 0 {
		t.Fatalf("probe counters not recorded: %+v", h)
	}
	if !e.HasStore() {
		t.Fatal("no store attached after reopen")
	}

	// The survivor stays memory-only: its ingest must not touch the
	// reopened store's WAL (whose replay of it was dropped).
	pre := e.Store().Stats().AppendedRecords
	if _, err := jb.Ingest(flat(6000, 2, 40)); err != nil {
		t.Fatalf("post-reopen ingest on outage job: %v", err)
	}
	if got := e.Store().Stats().AppendedRecords; got != pre {
		t.Errorf("outage-surviving job appended %d WAL records to the reopened store", got-pre)
	}
	if got := e.Store().Stats().LiveJobs; got != 0 {
		t.Errorf("reopened store tracks %d live jobs, want 0 (stale jobs dropped)", got)
	}

	// New jobs are durable again.
	jb2, err := e.Register("fresh", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb2.Ingest(flat(7000, 2, 5)); err != nil {
		t.Fatal(err)
	}
	if got := e.Store().Stats().AppendedRecords; got == pre {
		t.Error("post-reopen job not WAL-backed")
	}

	// A restart of the whole engine sees the durable state: only the
	// fresh job's records.
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	e2 := New(testDict(t))
	recovered, err := e2.OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1 (fresh)", recovered)
	}
	if _, ok := e2.Lookup("fresh"); !ok {
		t.Error("fresh job missing after restart")
	}
	if _, ok := e2.Lookup("survivor"); ok {
		t.Error("outage job resurrected durable state it never had")
	}
}

// healGate is a slog handler that holds the first store_heal record
// until released, keeping the probe inside its heal.
type healGate struct {
	heals   atomic.Int64
	entered chan struct{}
	release chan struct{}
}

func (h *healGate) Enabled(context.Context, slog.Level) bool { return true }

func (h *healGate) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key != "event" {
			return true
		}
		if a.Value.String() == "store_heal" && h.heals.Add(1) == 1 {
			close(h.entered)
			<-h.release
		}
		return false
	})
	return nil
}

func (h *healGate) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *healGate) WithGroup(string) slog.Handler      { return h }

// TestProbeSurvivesDegradeDuringHeal: a degrade that lands while the
// probe is still finishing a heal must not leave the engine degraded
// with no probe running — the probe lives as long as the store is
// attached, so it heals the second outage too.
func TestProbeSurvivesDegradeDuringHeal(t *testing.T) {
	fs := vfs.NewFault(vfs.OS{}, 1)
	st, err := tsdb.OpenOptions(t.TempDir(), tsdb.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h := &healGate{entered: make(chan struct{}), release: make(chan struct{})}
	e := New(testDict(t))
	e.Logger = slog.New(h)
	e.StoreProbeInterval = 5 * time.Millisecond
	if _, err := e.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(h.release) }) }
	defer e.Close()
	defer release()

	jb, err := e.Register("victim", 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if e.Health().Status != StatusDegraded {
		t.Fatal("engine did not degrade")
	}
	fs.Reset()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the first heal")
	}

	// The probe is inside its heal, held by the logger. The next
	// registration poisons the healed store and degrades the engine.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	if _, err := e.Register("second", 2); err != nil {
		t.Fatalf("Register across poisoning = %v, want memory-only admission", err)
	}
	if got := e.Health().Status; got != StatusDegraded {
		t.Fatalf("health after the second poisoning = %q, want degraded", got)
	}
	fs.Reset()
	release()
	waitFor(t, "the second heal", func() bool { return h.heals.Load() >= 2 })
	if got := e.Health().Status; got != StatusHealthy {
		t.Fatalf("health after the second heal = %q", got)
	}
}

// TestDegradeRegisterPoisoning: a poisoning first surfaced by Register
// still admits the job memory-only and degrades the engine.
func TestDegradeRegisterPoisoning(t *testing.T) {
	e, fs := attachFaultStore(t, t.TempDir())
	defer e.Close()
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	jb, err := e.Register("first", 2)
	if err != nil {
		t.Fatalf("Register across poisoning = %v, want memory-only admission", err)
	}
	if e.Health().Status != StatusDegraded {
		t.Fatal("engine did not degrade")
	}
	if _, err := jb.Ingest(flat(6000, 2, 5)); err != nil {
		t.Fatalf("ingest on memory-only job: %v", err)
	}
}

// TestReadonlyOnDiskFull is the disk-full contract end to end: ENOSPC
// on the WAL flips the engine to read-only (not degraded, not
// poisoned), every read keeps serving, every write is shed with the
// retryable ErrReadOnly, and once space frees the probe resumes
// durable mode with the surviving job still WAL-backed — no acked
// sample lost. The ENOSPC lands on a registration, a write that feeds
// no stream, so the tenant's stream and WAL stay in lockstep across
// the window (TestReadonlyDivergedJobNotRepinned covers an ingest
// that hits it).
func TestReadonlyOnDiskFull(t *testing.T) {
	dir := t.TempDir()
	e, fs := attachFaultStore(t, dir)
	defer e.Close()

	jb, err := e.Register("tenant", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}

	// Fill the disk: free space reads 0 (so the probe cannot resume
	// yet) and the next WAL write answers ENOSPC.
	fs.SetFree(0)
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC})
	if _, err := e.Register("latecomer", 2); !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrStore) {
		t.Fatalf("disk-full Register = %v, want ErrStore+ErrReadOnly", err)
	}
	if _, ok := e.Lookup("latecomer"); ok {
		t.Fatal("refused registration left a live job behind")
	}

	h := e.Health()
	if h.Status != StatusReadonly {
		t.Fatalf("health = %q, want readonly", h.Status)
	}
	if h.Error == "" {
		t.Error("readonly health carries no error")
	}
	if h.Disk == nil || !h.Disk.ReadOnly || h.Disk.FreeBytes != 0 {
		t.Fatalf("disk section = %+v, want read_only with 0 free", h.Disk)
	}
	if got := e.Stats().Health; got != StatusReadonly {
		t.Fatalf("Stats.Health = %q, want readonly", got)
	}

	// Every read keeps serving from the still-open store.
	if _, err := jb.Result(); err != nil {
		t.Fatalf("readonly Result: %v", err)
	}
	if lst, err := e.Jobs(0, 10); err != nil || lst.Total != 1 {
		t.Fatalf("readonly Jobs = %+v, %v", lst, err)
	}
	if sd, err := e.Series("tenant"); err != nil || sd.Source != "live" {
		t.Fatalf("readonly Series = %+v, %v", sd, err)
	}
	if _, err := e.Executions(); err != nil {
		t.Fatalf("readonly Executions: %v", err)
	}

	// Every write is shed with the retryable identity.
	if _, err := jb.Ingest(flat(6000, 2, 30)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("readonly ingest = %v, want ErrReadOnly", err)
	}
	if _, err := e.Register("newcomer", 2); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("readonly Register = %v, want ErrReadOnly", err)
	}
	if err := jb.Close(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("readonly Close = %v, want ErrReadOnly", err)
	}

	// Space frees: the probe bounces the store and durable mode
	// resumes with the tenant re-pinned, not dropped.
	fs.Reset()
	waitFor(t, "disk-full resume", func() bool { return e.Health().Status == StatusHealthy })
	if got := e.Store().Stats().LiveJobs; got != 1 {
		t.Fatalf("reopened store tracks %d live jobs, want 1 (tenant re-pinned)", got)
	}
	pre := e.Store().Stats().AppendedRecords
	if _, err := jb.Ingest(flat(6000, 2, 40)); err != nil {
		t.Fatalf("post-resume ingest: %v", err)
	}
	if got := e.Store().Stats().AppendedRecords; got == pre {
		t.Error("post-resume ingest not WAL-backed: tenant lost durability")
	}

	// Restart over the directory: exactly the acked samples survive.
	acked := int64(0)
	for _, lj := range e.Store().Live() {
		acked += lj.Samples
	}
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	e2 := New(testDict(t))
	recovered, err := e2.OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	replayed := int64(0)
	for _, lj := range e2.Store().Live() {
		replayed += lj.Samples
	}
	if replayed != acked {
		t.Fatalf("replayed %d samples, acked %d — durability hole across readonly window", replayed, acked)
	}
}

// TestReadonlyDivergedJobNotRepinned: an ingest whose ENOSPC surfaces
// after its runs were fed (here at the batch's commit flush) answers
// ErrReadOnly, but its stream now holds samples the WAL never got. The
// resume must not re-pin such a job as durable — a restart would
// change its answer — so it stays memory-only, like an outage
// survivor.
func TestReadonlyDivergedJobNotRepinned(t *testing.T) {
	dir := t.TempDir()
	e, fs := attachFaultStore(t, dir)
	defer e.Close()

	jb, err := e.Register("tenant", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}
	fs.SetFree(0)
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC})
	if _, err := jb.Ingest(flat(6000, 2, 20)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("disk-full ingest = %v, want ErrReadOnly", err)
	}
	sum, err := jb.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 64 {
		t.Fatalf("stream holds %d samples, want 64 (the refused batch was fed before its commit)", sum.Samples)
	}

	fs.Reset()
	waitFor(t, "disk-full resume", func() bool { return e.Health().Status == StatusHealthy })
	if got := e.Store().Stats().LiveJobs; got != 0 {
		t.Fatalf("reopened store tracks %d live jobs, want 0 (diverged tenant dropped, not re-pinned)", got)
	}
	pre := e.Store().Stats().AppendedRecords
	if _, err := jb.Ingest(flat(6000, 2, 30)); err != nil {
		t.Fatalf("post-resume ingest: %v", err)
	}
	if got := e.Store().Stats().AppendedRecords; got != pre {
		t.Errorf("diverged tenant appended %d WAL records to the reopened store", got-pre)
	}

	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	e2 := New(testDict(t))
	recovered, err := e2.OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if recovered != 0 {
		t.Fatalf("recovered %d jobs, want 0 (the diverged tenant ran memory-only)", recovered)
	}
}

// TestReadonlyResumeWaitsForHeadroom: the probe must not bounce the
// readonly store while free space is still below the watermark — the
// reads it serves would go away for a resume that immediately fails
// back to readonly.
func TestReadonlyResumeWaitsForHeadroom(t *testing.T) {
	fs := vfs.NewFault(vfs.OS{}, 1)
	st, err := tsdb.OpenOptions(t.TempDir(), tsdb.Options{FS: fs, DiskLowBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e := New(testDict(t))
	e.StoreProbeInterval = time.Millisecond
	if _, err := e.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	defer e.Close()

	jb, err := e.Register("j", 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFree(1 << 20) // below the 4 MiB watermark
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC, Times: 1})
	if _, err := jb.Ingest(flat(6000, 2, 10)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest = %v, want ErrReadOnly", err)
	}
	// The write fault is gone but space is still low: many probe
	// ticks later the engine must still be readonly, store attached.
	time.Sleep(30 * time.Millisecond)
	if got := e.Health().Status; got != StatusReadonly {
		t.Fatalf("health with low disk = %q, want readonly", got)
	}
	if !e.HasStore() {
		t.Fatal("readonly store detached while waiting for headroom")
	}
	if attempts := e.Health().StoreReopenAttempts; attempts == 0 {
		t.Fatal("probe never ticked")
	}
	// Headroom returns (above the watermark): resume.
	fs.SetFree(64 << 20)
	waitFor(t, "resume after headroom", func() bool { return e.Health().Status == StatusHealthy })
	if _, err := jb.Ingest(flat(6000, 2, 20)); err != nil {
		t.Fatalf("post-resume ingest: %v", err)
	}
}

// TestCloseStoreWhileDegraded: shutting down a degraded engine stops
// the probe and leaves health clean.
func TestCloseStoreWhileDegraded(t *testing.T) {
	e, fs := attachFaultStore(t, t.TempDir())
	jb, err := e.Register("j", 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}
	if e.Health().Status != StatusDegraded {
		t.Fatal("engine did not degrade")
	}
	e.CloseStore() // error expected from the poisoned close; must not hang
	if got := e.Health().Status; got != StatusHealthy {
		t.Fatalf("health after CloseStore = %q", got)
	}
	if e.HasStore() {
		t.Fatal("store still attached")
	}
	if _, err := jb.Ingest(flat(6000, 2, 20)); err != nil {
		t.Fatalf("memory-only ingest after CloseStore: %v", err)
	}
}

// TestAcquireIngestGate exercises the admission gate directly: both
// bounds, rollback on refusal, release restoring capacity, and the
// health readout.
func TestAcquireIngestGate(t *testing.T) {
	e := New(testDict(t))
	e.MaxIngestBytes = 1000
	e.MaxIngestBatches = 2

	rel1, err := e.AcquireIngest(600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AcquireIngest(600); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("byte-cap breach = %v, want ErrOverloaded", err)
	}
	rel2, err := e.AcquireIngest(100)
	if err != nil {
		t.Fatalf("within-cap acquire refused: %v", err)
	}
	if _, err := e.AcquireIngest(100); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch-cap breach = %v, want ErrOverloaded", err)
	}
	// A full gate sheds with 429; it is not a store mode, so health
	// stays healthy (the client would read readonly as a full disk).
	if got := e.Health().Status; got != StatusHealthy {
		t.Fatalf("saturated health = %q, want healthy", got)
	}
	if got := e.Health().IngestShedTotal; got != 2 {
		t.Fatalf("shed total = %d, want 2", got)
	}
	rel1()
	rel1() // idempotent
	rel2()
	h := e.Health()
	if h.IngestInflightBytes != 0 || h.IngestInflightBatches != 0 {
		t.Fatalf("gate not drained: %+v", h)
	}
	if h.Status != StatusHealthy {
		t.Fatalf("drained health = %q", h.Status)
	}
	if _, err := e.AcquireIngest(900); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
}

// TestIngestUnaffectedByGateDefaults: the default caps are far above a
// normal request; plain ingest never sees the gate.
func TestIngestUnaffectedByGateDefaults(t *testing.T) {
	e := New(testDict(t))
	rel, err := e.AcquireIngest(1 << 20)
	if err != nil {
		t.Fatalf("default gate refused 1 MiB: %v", err)
	}
	rel()
}
