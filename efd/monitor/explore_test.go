package monitor

// Small-scope exhaustive exploration of the store-mode ladder
// (none/rw/degraded/readonly). A breadth-first search walks abstract
// engine states — the mode, whether a store is attached, whether the
// disk is full, and the pin of each of at most two live jobs — and for
// every reachable (state, event) pair replays the shortest path to the
// state on a fresh engine over vfs.Fault, applies the event, and checks
// the ladder's invariants. Every explored edge is one line of
// testdata/store_modes.golden, so a change to the transition table
// shows up as a golden diff; rewrite it with -update-golden.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/vfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/store_modes.golden")

// probeStep runs one reopen-probe tick on the calling goroutine; the
// explorer's engines never tick by themselves (StoreProbeInterval is
// an hour).
func probeStep(e *Engine) { e.probeTick() }

// probeRunning reports whether the engine's reopen loop is running.
func probeRunning(e *Engine) bool {
	e.probeMu.Lock()
	defer e.probeMu.Unlock()
	return e.probeStop != nil
}

// syncless is the OS filesystem with fsync turned into a no-op: the
// explorer replays hundreds of short histories and real fsyncs would
// dominate its run time. The Fault layer above it still sees, counts
// and fails every Sync call.
type syncless struct{ vfs.OS }

type synclessFile struct{ vfs.File }

func (synclessFile) Sync() error { return nil }

func (syncless) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := vfs.OS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return synclessFile{f}, nil
}

func (syncless) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := vfs.OS{}.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return synclessFile{f}, nil
}

func (syncless) SyncDir(string) error { return nil }

// Abstract modes, as the efd_engine_store_mode gauge reports them.
var modeNames = [...]string{"none", "rw", "degraded", "readonly"}

// absState is one abstract engine state. A job slot is "-" (no live
// job), "wal" (pinned to the attached store), "wal+" (pinned, but its
// stream holds samples of a refused ingest) or "mem" (memory-only).
type absState struct {
	mode     string
	attached bool
	full     bool
	jobs     [2]string
}

func (s absState) String() string {
	store, disk := "detached", "free"
	if s.attached {
		store = "attached"
	}
	if s.full {
		disk = "full"
	}
	return fmt.Sprintf("%-8s %-8s disk=%-4s jobs=%-4s %-4s", s.mode, store, disk, s.jobs[0], s.jobs[1])
}

func (s absState) live() int {
	n := 0
	for _, p := range s.jobs {
		if p != "-" {
			n++
		}
	}
	return n
}

// explorer is one replay: a fresh engine over a fresh store directory.
type explorer struct {
	t    *testing.T
	e    *Engine
	fs   *vfs.Fault
	ev   *eventLog
	reg  *obs.Registry
	jobs [2]*Job
	// cur is the abstract state after the last step.
	cur absState
	// acked is each slot's stream sample count after its last
	// acknowledged ingest.
	acked [2]int64
	full  bool
	ids   int
}

func newExplorer(t *testing.T, dir string) *explorer {
	x := &explorer{t: t, fs: vfs.NewFault(syncless{}, 1), ev: newEventLog(), reg: obs.NewRegistry()}
	// No recovery retries: a one-shot fault fails a reopen outright.
	st, err := tsdb.OpenOptions(dir, tsdb.Options{FS: x.fs, RecoverRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	x.e = New(testDict(t))
	x.e.Logger = slog.New(x.ev)
	x.e.EnableMetrics(x.reg)
	x.e.StoreProbeInterval = time.Hour
	if _, err := x.e.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	return x
}

// plan installs the fault plan for the next step: the disk-full rules
// when the disk is full, the step's one-shot faults, and trailing
// no-op rules that make every write and sync count as a firing.
func (x *explorer) plan(oneShot ...vfs.Rule) {
	x.fs.Reset()
	if x.full {
		x.fs.SetFree(0)
		x.fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC})
	}
	for _, r := range oneShot {
		r.Times = 1
		x.fs.AddRule(r)
	}
	x.fs.AddRule(vfs.Rule{Op: vfs.OpWrite})
	x.fs.AddRule(vfs.Rule{Op: vfs.OpSync})
}

func (x *explorer) mode() string {
	var b bytes.Buffer
	if err := x.reg.WritePrometheus(&b); err != nil {
		x.t.Fatal(err)
	}
	const gauge = "\nefd_engine_store_mode "
	i := strings.Index(b.String(), gauge)
	if i < 0 {
		x.t.Fatal("no efd_engine_store_mode gauge")
	}
	return modeNames[b.String()[i+len(gauge)]-'0']
}

func (x *explorer) state() absState {
	s := absState{mode: x.mode(), attached: x.e.HasStore(), full: x.full, jobs: [2]string{"-", "-"}}
	cur := x.e.Store()
	for i, jb := range x.jobs {
		if jb == nil {
			continue
		}
		jb.j.mu.Lock()
		pinned := jb.j.st != nil && jb.j.st == cur
		jb.j.mu.Unlock()
		s.jobs[i] = "mem"
		if pinned {
			s.jobs[i] = "wal"
			if x.samples(jb) > x.acked[i] {
				s.jobs[i] = "wal+"
			}
		}
	}
	return s
}

func (x *explorer) samples(jb *Job) int64 {
	sum, err := jb.Summary()
	if err != nil {
		x.t.Fatal(err)
	}
	return sum.Samples
}

// outcome classifies a step's error without its text (which carries
// paths).
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrReadOnly):
		return "read_only"
	case errors.Is(err, ErrUnknownJob):
		return "unknown"
	case errors.Is(err, ErrStore):
		return "store_error"
	}
	return "error"
}

func (x *explorer) register() error {
	for i := range x.jobs {
		if x.jobs[i] != nil {
			continue
		}
		x.ids++
		jb, err := x.e.Register(fmt.Sprintf("j%d", x.ids), 2)
		if err == nil {
			x.jobs[i], x.acked[i] = jb, 0
		}
		return err
	}
	return nil
}

func (x *explorer) ingest() error {
	var batches []Batch
	for _, jb := range x.jobs {
		if jb != nil {
			batches = append(batches, Batch{JobID: jb.ID(), Samples: flat(6000, 2, 1)})
		}
	}
	_, _, err := x.e.IngestBatches(batches)
	for i, jb := range x.jobs {
		if jb != nil && err == nil {
			x.acked[i] = x.samples(jb)
		}
	}
	return err
}

func (x *explorer) closeJob() error {
	for i, jb := range x.jobs {
		if jb == nil {
			continue
		}
		err := jb.Close()
		if err == nil {
			x.jobs[i] = nil
		}
		return err
	}
	return nil
}

// exploreEvent is one event of the search. ok reports whether it
// applies in a state; do runs it and returns its error.
type exploreEvent struct {
	name  string
	probe bool
	ok    func(absState) bool
	do    func(*explorer) error
}

func always(absState) bool        { return true }
func hasJob(s absState) bool      { return s.live() > 0 }
func hasFreeSlot(s absState) bool { return s.live() < 2 }

var (
	syncEIO     = vfs.Rule{Op: vfs.OpSync, Err: syscall.EIO}
	writeENOSPC = vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC}
	lockEIO     = vfs.Rule{Op: vfs.OpLock, Err: syscall.EIO}
)

var exploreEvents = []exploreEvent{
	{name: "register", ok: hasFreeSlot, do: func(x *explorer) error { x.plan(); return x.register() }},
	{name: "ingest", ok: hasJob, do: func(x *explorer) error { x.plan(); return x.ingest() }},
	{name: "close-job", ok: hasJob, do: func(x *explorer) error { x.plan(); return x.closeJob() }},
	{name: "ingest+sync-eio", ok: hasJob, do: func(x *explorer) error { x.plan(syncEIO); return x.ingest() }},
	{name: "ingest+write-enospc", ok: hasJob, do: func(x *explorer) error { x.plan(writeENOSPC); return x.ingest() }},
	{name: "register+write-enospc", ok: hasFreeSlot, do: func(x *explorer) error { x.plan(writeENOSPC); return x.register() }},
	{name: "disk-full", ok: func(s absState) bool { return !s.full }, do: func(x *explorer) error { x.full = true; x.plan(); return nil }},
	{name: "disk-freed", ok: func(s absState) bool { return s.full }, do: func(x *explorer) error { x.full = false; x.plan(); return nil }},
	{name: "probe", probe: true, ok: always, do: func(x *explorer) error { x.plan(); probeStep(x.e); return nil }},
	{name: "probe+reopen-fails", probe: true, ok: always, do: func(x *explorer) error { x.plan(lockEIO); probeStep(x.e); return nil }},
	{name: "close-store", ok: always, do: func(x *explorer) error { x.plan(); x.e.CloseStore(); return nil }},
}

// transitionCounters snapshots the store-mode transition counters.
func transitionCounters(e *Engine) [4]int64 {
	return [4]int64{e.met.storeDegraded.Load(), e.met.storeReadonly.Load(), e.met.storeHealed.Load(), e.met.probeReopens.Load()}
}

var counterNames = [4]string{"degraded", "readonly", "healed", "reopens"}

// expectedEdges is the transition table: the event and the counters
// each mode change must emit, exactly once. Any mode change not listed
// here is a bug.
var expectedEdges = map[[2]string]struct {
	event    string
	counters [4]int64
}{
	{"rw", "degraded"}:       {"store_degrade", [4]int64{1, 0, 0, 0}},
	{"rw", "readonly"}:       {"store_readonly", [4]int64{0, 1, 0, 0}},
	{"readonly", "degraded"}: {"store_degrade", [4]int64{1, 0, 0, 0}},
	{"degraded", "rw"}:       {"store_heal", [4]int64{0, 0, 1, 1}},
	{"readonly", "rw"}:       {"store_heal", [4]int64{0, 0, 1, 1}},
	{"rw", "none"}:           {},
	{"degraded", "none"}:     {},
	{"readonly", "none"}:     {},
}

var transitionEvents = []string{"store_degrade", "store_readonly", "store_heal"}

// check applies the ladder's invariants to one step from `from` to
// `to`; writes counts the WAL writes and syncs the step made.
func (x *explorer) check(from, to absState, ev exploreEvent, writes int64, events map[string]int, counters [4]int64) {
	t := x.t
	where := fmt.Sprintf("%s --%s-->", from, ev.name)
	if writes > 0 && from.mode != "rw" && !ev.probe {
		t.Errorf("%s: %d WAL writes/syncs outside rw", where, writes)
	}
	if from.mode != to.mode {
		want, ok := expectedEdges[[2]string{from.mode, to.mode}]
		if !ok {
			t.Errorf("%s %s: no such edge in the transition table", where, to.mode)
		}
		for _, name := range transitionEvents {
			n := 0
			if name == want.event {
				n = 1
			}
			if events[name] != n {
				t.Errorf("%s %s: %d %s events, want %d", where, to.mode, events[name], name, n)
			}
		}
		if counters != want.counters {
			t.Errorf("%s %s: counter deltas %v, want %v", where, to.mode, counters, want.counters)
		}
	} else {
		for _, name := range transitionEvents {
			if events[name] != 0 {
				t.Errorf("%s: mode unchanged but %d %s events", where, events[name], name)
			}
		}
		if counters != [4]int64{} {
			t.Errorf("%s: mode unchanged but counter deltas %v", where, counters)
		}
	}

	h := x.e.Health()
	status := map[string]string{"none": StatusHealthy, "rw": StatusHealthy, "degraded": StatusDegraded, "readonly": StatusReadonly}[to.mode]
	if h.Status != status || x.e.Stats().Health != status {
		t.Errorf("%s %s: Health %q, Stats.Health %q, want %q", where, to, h.Status, x.e.Stats().Health, status)
	}
	unhealthy := to.mode == "degraded" || to.mode == "readonly"
	if (h.Error != "") != unhealthy {
		t.Errorf("%s %s: Health error %q", where, to, h.Error)
	}
	if (h.Disk != nil && h.Disk.ReadOnly) != (to.mode == "readonly") {
		t.Errorf("%s %s: Health disk section %+v", where, to, h.Disk)
	}

	if to.mode == "rw" {
		stored := map[string]int64{}
		for _, lj := range x.e.Store().Live() {
			stored[lj.ID] = lj.Samples
		}
		for i, jb := range x.jobs {
			if to.jobs[i] == "-" || to.jobs[i] == "mem" {
				continue
			}
			if got, ok := stored[jb.ID()]; !ok || got != x.samples(jb) {
				t.Errorf("%s %s: pinned job %s holds %d samples, its WAL %d (present %v)", where, to, jb.ID(), x.samples(jb), got, ok)
			}
		}
	}

	if unhealthy && !probeRunning(x.e) {
		t.Errorf("%s %s: no reopen probe running", where, to)
	}
	if to.mode == "none" && probeRunning(x.e) {
		t.Errorf("%s %s: reopen probe still running after CloseStore", where, to)
	}
}

// step applies one event and returns the resulting state and the
// golden line's effect column.
func (x *explorer) step(ev exploreEvent) (absState, string, string) {
	from := x.cur
	fired := x.fs.Fired()
	events := map[string]int{}
	for _, name := range append([]string{"store_reopen_failed"}, transitionEvents...) {
		events[name] = -x.ev.count(name)
	}
	counters := transitionCounters(x.e)
	err := ev.do(x)
	writes := x.fs.Fired() - fired
	x.plan() // disarm one-shot faults the step did not consume
	to := x.state()
	x.cur = to
	var effects []string
	for _, name := range append([]string{"store_reopen_failed"}, transitionEvents...) {
		events[name] += x.ev.count(name)
		if events[name] > 0 {
			effects = append(effects, fmt.Sprintf("%s×%d", name, events[name]))
		}
	}
	after := transitionCounters(x.e)
	for i := range counters {
		counters[i] = after[i] - counters[i]
		if counters[i] != 0 {
			effects = append(effects, fmt.Sprintf("%s%+d", counterNames[i], counters[i]))
		}
	}
	x.check(from, to, ev, writes, events, counters)
	if len(effects) == 0 {
		effects = []string{"-"}
	}
	return to, outcome(err), strings.Join(effects, " ")
}

// TestStoreModeExplorer is the exhaustive small-scope check of the
// store-mode ladder; its golden is the explored transition table.
func TestStoreModeExplorer(t *testing.T) {
	root := t.TempDir()
	replays := 0
	replay := func(path []int) *explorer {
		replays++
		dir := filepath.Join(root, fmt.Sprint(replays))
		x := newExplorer(t, dir)
		for _, i := range path {
			exploreEvents[i].do(x)
		}
		x.plan()
		x.cur = x.state()
		return x
	}

	x := replay(nil)
	start := x.cur
	x.e.CloseStore()
	paths := map[absState][]int{start: nil}
	queue := []absState{start}
	var golden strings.Builder
	for len(queue) > 0 && !t.Failed() {
		s := queue[0]
		queue = queue[1:]
		for i, ev := range exploreEvents {
			if !ev.ok(s) {
				continue
			}
			path := append(append([]int(nil), paths[s]...), i)
			x := replay(paths[s])
			if got := x.cur; got != s {
				t.Fatalf("replay of %v reached %s, want %s", paths[s], got, s)
			}
			to, out, effects := x.step(ev)
			x.e.CloseStore()
			os.RemoveAll(filepath.Join(root, fmt.Sprint(replays)))
			fmt.Fprintf(&golden, "%s | %-21s | %-11s -> %s | %s\n", s, ev.name, out, to, effects)
			if _, seen := paths[to]; !seen {
				paths[to] = path
				queue = append(queue, to)
			}
		}
	}
	t.Logf("%d states, %d replays", len(paths), replays)
	if t.Failed() {
		return
	}

	file := filepath.Join("testdata", "store_modes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to record): %v", file, err)
	}
	if got := golden.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("store-mode table differs from %s at line %d:\n got: %s\nwant: %s", file, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("store-mode table differs from %s: %d lines, want %d", file, len(gl), len(wl))
	}
}
