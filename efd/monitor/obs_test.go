package monitor

import (
	"context"
	"log/slog"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/vfs"
)

// TestInstrumentedIngestZeroAlloc pins the observability contract on
// the ingest hot path: with the full metrics kit enabled, a warmed
// memory-only Job.Ingest still performs zero allocations — the
// instrumentation is two clock reads and an atomic histogram bump.
func TestInstrumentedIngestZeroAlloc(t *testing.T) {
	e := New(testDict(t))
	defer e.Close()
	e.EnableMetrics(obs.NewRegistry())
	jb, err := e.Register("pinned", 2)
	if err != nil {
		t.Fatal(err)
	}
	samples := flat(6000, 2, 40)
	for i := 0; i < 16; i++ { // warm the column scratch and accumulators
		if _, err := jb.Ingest(samples); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := jb.Ingest(samples); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented warmed Job.Ingest allocates %.1f/op, want 0", allocs)
	}
	if e.obsm.ingestSeconds.Count() == 0 {
		t.Error("ingest latency histogram never observed — instrumentation inactive")
	}
}

// eventLog is a slog.Handler counting records by their "event"
// attribute — the structured identity of every engine state-change
// log line.
type eventLog struct {
	mu     sync.Mutex
	counts map[string]int
}

func newEventLog() *eventLog { return &eventLog{counts: make(map[string]int)} }

func (h *eventLog) Enabled(context.Context, slog.Level) bool { return true }

func (h *eventLog) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "event" {
			h.mu.Lock()
			h.counts[a.Value.String()]++
			h.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

func (h *eventLog) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *eventLog) WithGroup(string) slog.Handler      { return h }

func (h *eventLog) count(event string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counts[event]
}

// obsFaultEngine is attachFaultStore with the observability plane on:
// a counting structured logger and the metrics registry.
func obsFaultEngine(t *testing.T) (*Engine, *vfs.Fault, *eventLog) {
	t.Helper()
	fs := vfs.NewFault(vfs.OS{}, 1)
	st, err := tsdb.OpenOptions(t.TempDir(), tsdb.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ev := newEventLog()
	e := New(testDict(t))
	e.Logger = slog.New(ev)
	e.EnableMetrics(obs.NewRegistry())
	e.StoreProbeInterval = 5 * time.Millisecond
	if _, err := e.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return e, fs, ev
}

// TestChaosTransitionEventsDegradeHeal: a degrade→heal cycle under
// concurrent ingest emits exactly one structured log event per
// transition, and each event's counter moves in lockstep — however
// many racing writers observe the same fault.
func TestChaosTransitionEventsDegradeHeal(t *testing.T) {
	e, fs, ev := obsFaultEngine(t)
	defer e.Close()

	jb, err := e.Register("victim", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Ingest(flat(6000, 2, 10)); err != nil {
		t.Fatal(err)
	}

	// Poison fsync and hammer the store from several goroutines: every
	// writer can see the failure, only one may transition. Reopens fail
	// too until the reset: a reopen issues no fsync, so it would heal
	// the store under the writers and let them degrade it again.
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO})
	fs.AddRule(vfs.Rule{Op: vfs.OpLock, Err: syscall.EIO})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := jb.Ingest(flat(6000, 2, 20)); err != nil {
					t.Errorf("degraded ingest: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "degrade", func() bool { return e.Health().Status == StatusDegraded })
	if got := ev.count("store_degrade"); got != 1 {
		t.Fatalf("store_degrade events = %d, want exactly 1", got)
	}
	if got := e.met.storeDegraded.Load(); got != 1 {
		t.Fatalf("store_degraded counter = %d, want 1", got)
	}

	// Heal: the probe reopens once; one event, one counter bump. Wait
	// for the event: the heal publishes the mode before it logs.
	fs.Reset()
	waitFor(t, "heal", func() bool { return ev.count("store_heal") > 0 })
	if got := ev.count("store_heal"); got != 1 {
		t.Fatalf("store_heal events = %d, want exactly 1", got)
	}
	if got := e.met.storeHealed.Load(); got != 1 {
		t.Fatalf("store_healed counter = %d, want 1", got)
	}
	if got := ev.count("store_readonly"); got != 0 {
		t.Fatalf("degrade cycle emitted %d store_readonly events", got)
	}
}

// TestChaosTransitionEventsReadonly: the disk-full transition is just
// as disciplined — one store_readonly event and counter bump when
// ENOSPC fences writes, one store_heal when space frees.
func TestChaosTransitionEventsReadonly(t *testing.T) {
	e, fs, ev := obsFaultEngine(t)
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
	for w := 0; w < 8; w++ { // several shed writes, one transition
		jb.Ingest(flat(6000, 2, 20))
	}
	waitFor(t, "readonly", func() bool { return e.Health().Status == StatusReadonly })
	if got := ev.count("store_readonly"); got != 1 {
		t.Fatalf("store_readonly events = %d, want exactly 1", got)
	}
	if got := e.met.storeReadonly.Load(); got != 1 {
		t.Fatalf("store_readonly counter = %d, want 1", got)
	}

	fs.Reset()
	waitFor(t, "resume", func() bool { return ev.count("store_heal") > 0 })
	if got := ev.count("store_heal"); got != 1 {
		t.Fatalf("store_heal events = %d, want exactly 1", got)
	}
	if got := e.met.storeHealed.Load(); got != 1 {
		t.Fatalf("store_healed counter = %d, want 1", got)
	}
	if got := ev.count("store_degrade"); got != 0 {
		t.Fatalf("readonly cycle emitted %d store_degrade events", got)
	}
}
