package monitor

// Goroutine-leak checks: Close and CloseStore must reap every
// background goroutine the engine started — most importantly the
// store-reopen probe that runs while a store is attached. Run under
// -race.

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// waitGoroutines polls until the goroutine count is back at (or below)
// the baseline, dumping all stacks if it never gets there.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestEngineCloseReapsProbe: closing a DEGRADED engine (probe loop
// running) leaves no goroutine behind, across repeated cycles.
func TestEngineCloseReapsProbe(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e, fs := attachFaultStore(t, t.TempDir())
		jb, err := e.Register("leak", 2)
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
		e.Close() // poisoned store: close errors are expected, leaks are not
	}
	waitGoroutines(t, baseline)
}

// TestCloseStoreReapsProbe: detaching the store from a degraded engine
// stops the probe while the engine itself keeps running.
func TestCloseStoreReapsProbe(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e, fs := attachFaultStore(t, t.TempDir())
		jb, err := e.Register("leak", 2)
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
		e.CloseStore()
		// The engine is still serving, memory-only.
		if _, err := jb.Ingest(flat(6000, 2, 20)); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	waitGoroutines(t, baseline)
}
