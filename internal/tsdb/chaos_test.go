package tsdb

// Seeded chaos harness: random op scripts against a fault-injected
// filesystem, checked against a shadow model of exactly the operations
// the store acknowledged. Invariants, whatever the fault:
//
//  1. Reopening the directory always succeeds — recovery never wedges.
//  2. Acknowledged data is never lost: every acked sample/finish/drop
//     is present (acked samples as an order-preserving prefix of each
//     recovered series).
//  3. Nothing is invented: a series never holds more samples than were
//     ever appended, and per-job accounting stays consistent.
//  4. A crash at a clean commit boundary recovers state identical to a
//     reference store that ran only the acknowledged script.
//
// Each failure log prints CHAOS_SEED; re-run with the same seed
// (CHAOS_SEED=... go test -run Chaos ./internal/tsdb) to reproduce the
// exact schedule. CHAOS_TIME bounds the wall-clock spent.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// chaosSeed picks the run seed: CHAOS_SEED when set, wall clock
// otherwise. Always logged so any failure is reproducible.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return time.Now().UnixNano()
}

// chaosBudget is the wall-clock bound: CHAOS_TIME when set, def
// otherwise.
func chaosBudget(t *testing.T, def time.Duration) time.Duration {
	t.Helper()
	if s := os.Getenv("CHAOS_TIME"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad CHAOS_TIME %q: %v", s, err)
		}
		return d
	}
	return def
}

// shadowJob is the model's view of one job: what the store has
// acknowledged (acked*) versus handed to it without an ack yet
// (sent*). Series keys are "metric|node".
//
// The maybe* fields record the single op the script attempted that the
// store did NOT acknowledge (the fault fired mid-op). Fsync-failure
// semantics mean such an op may or may not have reached the disk — the
// record can be fully written with only the fsync failing — so the
// verifier must accept either outcome for it.
type shadowJob struct {
	nodes    int
	acked    map[string][]float64
	sent     map[string][]float64
	finished bool
	label    string
	dropped  bool

	maybeRegistered bool // unacked Register: job may or may not exist
	maybeFinished   bool // unacked Finish: may be live or an execution
	maybeLabel      string
	maybeDropped    bool // unacked Drop: may be live or gone
}

func chaosKey(metric string, node int) string { return fmt.Sprintf("%s|%d", metric, node) }

// chaosScript drives a random op sequence against st, maintaining the
// shadow. Every successful WAL-syncing op (Register/Commit/Finish/
// Drop all fsync before returning) promotes everything sent so far to
// acked — that is the store's documented ack contract. The script
// stops at the first error and returns it.
func chaosScript(t *testing.T, rng *rand.Rand, st *Store, ops int, shadow map[string]*shadowJob) error {
	t.Helper()
	promote := func() {
		for _, j := range shadow {
			for k, vals := range j.sent {
				j.acked[k] = append(j.acked[k], vals...)
				delete(j.sent, k)
			}
		}
	}
	liveIDs := func() []string {
		var ids []string
		for id, j := range shadow {
			if !j.finished && !j.dropped {
				ids = append(ids, id)
			}
		}
		return ids
	}
	nextID := len(shadow)
	for i := 0; i < ops; i++ {
		live := liveIDs()
		roll := rng.Intn(100)
		switch {
		case roll < 15 || len(live) == 0: // register
			id := fmt.Sprintf("job-%03d", nextID)
			nextID++
			nodes := 1 + rng.Intn(3)
			if err := st.Register(id, nodes); err != nil {
				shadow[id] = &shadowJob{nodes: nodes, acked: map[string][]float64{},
					sent: map[string][]float64{}, maybeRegistered: true}
				return err
			}
			shadow[id] = &shadowJob{nodes: nodes, acked: map[string][]float64{}, sent: map[string][]float64{}}
			promote()
		case roll < 60: // append a short run
			id := live[rng.Intn(len(live))]
			j := shadow[id]
			metric := []string{"cpu", "mem", "net"}[rng.Intn(3)]
			node := rng.Intn(j.nodes)
			key := chaosKey(metric, node)
			base := len(j.acked[key]) + len(j.sent[key])
			n := 1 + rng.Intn(8)
			offs := make([]time.Duration, n)
			vals := make([]float64, n)
			for k := 0; k < n; k++ {
				offs[k] = time.Duration(base+k) * time.Second
				vals[k] = rng.NormFloat64()
			}
			if err := st.Append(id, metric, node, offs, vals); err != nil {
				// The record may still be (partially) on disk; sent
				// already means "handed over, unacked".
				j.sent[key] = append(j.sent[key], vals...)
				return err
			}
			j.sent[key] = append(j.sent[key], vals...)
		case roll < 80: // commit
			if err := st.Commit(); err != nil {
				return err
			}
			promote()
		case roll < 88: // finish
			id := live[rng.Intn(len(live))]
			label := fmt.Sprintf("app-%d", rng.Intn(4))
			if err := st.Finish(id, label); err != nil {
				shadow[id].maybeFinished, shadow[id].maybeLabel = true, label
				return err
			}
			shadow[id].finished, shadow[id].label = true, label
			promote()
		case roll < 94: // drop
			id := live[rng.Intn(len(live))]
			if err := st.Drop(id); err != nil {
				shadow[id].maybeDropped = true
				return err
			}
			shadow[id].dropped = true
			promote()
		default: // flush (segments); does not promote — see note below
			// Flush compacts the WAL from the memtables, so unacked
			// appends usually survive it; the model stays conservative
			// and does not count on that.
			if err := st.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyFloor checks invariants 1–3 against a reopened store.
func verifyFloor(t *testing.T, re *Store, shadow map[string]*shadowJob, seed int64, round int) {
	t.Helper()
	liveByID := map[string]LiveJob{}
	for _, lj := range re.Live() {
		liveByID[lj.ID] = lj
	}
	execByID := map[string]ExecInfo{}
	for _, x := range re.Executions() {
		execByID[x.ID] = x
	}
	// Internal consistency of whatever was recovered.
	for _, lj := range re.Live() {
		var sum int64
		for _, sr := range lj.Series {
			if len(sr.Offsets) != len(sr.Values) {
				t.Fatalf("CHAOS_SEED=%d round %d: ragged recovered series in %q", seed, round, lj.ID)
			}
			sum += int64(len(sr.Values))
		}
		if sum != lj.Samples {
			t.Fatalf("CHAOS_SEED=%d round %d: %q accounts %d samples, series hold %d", seed, round, lj.ID, lj.Samples, sum)
		}
	}
	for id, j := range shadow {
		if j.dropped {
			if _, ok := liveByID[id]; ok {
				t.Fatalf("CHAOS_SEED=%d round %d: dropped job %q resurrected", seed, round, id)
			}
			continue
		}
		if j.finished {
			x, ok := execByID[id]
			if !ok {
				t.Fatalf("CHAOS_SEED=%d round %d: acked finished job %q lost", seed, round, id)
			}
			if x.Label != j.label {
				t.Fatalf("CHAOS_SEED=%d round %d: %q label %q, want %q", seed, round, id, x.Label, j.label)
			}
			continue
		}
		lj, ok := liveByID[id]
		if !ok {
			// An unacked register may never have landed; an unacked
			// finish/drop may have hit the disk before the fault (only
			// the fsync failed) — either outcome is legal for the one
			// uncertain op per round.
			if j.maybeRegistered || j.maybeDropped {
				continue
			}
			if j.maybeFinished {
				if x, isExec := execByID[id]; isExec && x.Label != j.maybeLabel {
					t.Fatalf("CHAOS_SEED=%d round %d: %q label %q, unacked finish said %q",
						seed, round, id, x.Label, j.maybeLabel)
				}
				continue
			}
			t.Fatalf("CHAOS_SEED=%d round %d: acked live job %q lost", seed, round, id)
		}
		got := map[string][]float64{}
		for _, sr := range lj.Series {
			got[chaosKey(sr.Metric, sr.Node)] = sr.Values
		}
		for key, acked := range j.acked {
			rec := got[key]
			if len(rec) < len(acked) {
				t.Fatalf("CHAOS_SEED=%d round %d: %q series %s recovered %d samples, %d were acked",
					seed, round, id, key, len(rec), len(acked))
			}
			if max := len(acked) + len(j.sent[key]); len(rec) > max {
				t.Fatalf("CHAOS_SEED=%d round %d: %q series %s recovered %d samples, only %d ever sent",
					seed, round, id, key, len(rec), max)
			}
			for k, v := range acked {
				if rec[k] != v {
					t.Fatalf("CHAOS_SEED=%d round %d: %q series %s sample %d = %v, acked %v",
						seed, round, id, key, k, rec[k], v)
				}
			}
		}
	}
}

// chaosRules returns one randomly-armed fault for this round.
func chaosRules(rng *rand.Rand) vfs.Rule {
	ops := []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpRename, vfs.OpCreate}
	errs := []error{syscall.EIO, syscall.ENOSPC}
	r := vfs.Rule{
		Op:    ops[rng.Intn(len(ops))],
		After: int64(rng.Intn(60)),
		Times: 1,
		Err:   errs[rng.Intn(len(errs))],
	}
	if r.Op == vfs.OpWrite && rng.Intn(2) == 0 {
		r.Torn = true // partial write, then the error
	}
	return r
}

// TestChaosStoreFaults: rounds of random scripts against a randomly
// armed one-shot fault; after the store poisons (or the script ends),
// close, reopen clean, and hold the model to invariants 1–3.
func TestChaosStoreFaults(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("CHAOS_SEED=%d", seed)
	deadline := time.Now().Add(chaosBudget(t, 3*time.Second))
	for round := 0; round < 500; round++ {
		if round >= 3 && !time.Now().Before(deadline) {
			t.Logf("chaos: %d fault rounds", round)
			return
		}
		rng := rand.New(rand.NewSource(seed + int64(round)))
		dir := t.TempDir()
		fs := vfs.NewFault(vfs.OS{}, seed+int64(round))
		st, err := OpenOptions(dir, Options{FS: fs, FlushBytes: 1 << 12})
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: open: %v", seed, round, err)
		}
		fs.AddRule(chaosRules(rng))
		shadow := map[string]*shadowJob{}
		scriptErr := chaosScript(t, rng, st, 40+rng.Intn(80), shadow)
		if scriptErr != nil && st.Failed() == nil && st.ReadOnly() == nil && !isBenignChaosErr(scriptErr) {
			t.Fatalf("CHAOS_SEED=%d round %d: op failed without poisoning or read-only demotion: %v", seed, round, scriptErr)
		}
		st.Close() // poisoned/read-only close skips flushing, like a crash

		re, err := OpenOptions(dir, Options{}) // clean FS: recovery itself is not under fault here
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: reopen: %v", seed, round, err)
		}
		verifyFloor(t, re, shadow, seed, round)
		re.Close()
	}
}

// isBenignChaosErr filters script errors that do not poison the store
// by design: a failed segment flush (retryable) keeps the store
// serving.
func isBenignChaosErr(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.ENOSPC) || errors.Is(err, vfs.ErrInjected)
}

// tortureRule arms one transient fault on the recovery path itself:
// the directory scan, segment mapping, WAL read (including torn
// reads), the WAL open, the lock, and the quarantine writes. Times is
// kept at 1–2 so the sum across the armed rules (at most two) stays
// within Open's default retry budget — recovery must absorb every one
// of these.
func tortureRule(rng *rand.Rand) vfs.Rule {
	ops := []vfs.Op{
		vfs.OpReadDir, vfs.OpReadFile, vfs.OpMap, vfs.OpOpen,
		vfs.OpLock, vfs.OpMkdir, vfs.OpWrite, vfs.OpSync, vfs.OpTruncate,
	}
	errs := []error{syscall.EIO, syscall.ENOSPC, vfs.ErrInjected}
	r := vfs.Rule{
		Op:    ops[rng.Intn(len(ops))],
		After: int64(rng.Intn(3)),
		Times: 1 + int64(rng.Intn(2)),
		Err:   errs[rng.Intn(len(errs))],
	}
	if r.Op == vfs.OpReadFile && rng.Intn(2) == 0 {
		r.Torn = true // torn read: a prefix of the data plus the error
	}
	return r
}

// TestChaosRecoveryTorture: invariant 1 under fire. Each round runs a
// faulted script (like TestChaosStoreFaults), then reopens the
// directory with transient faults armed on the recovery operations
// themselves. The fault-tolerant Open must absorb every in-budget
// fault; the acked floor is then verified both on the tortured reopen
// and again after a second, clean reopen. Fired-fault counters prove
// the torture actually injected something — a run where every round
// silently passed zero faults through fails.
func TestChaosRecoveryTorture(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("CHAOS_SEED=%d", seed)
	deadline := time.Now().Add(chaosBudget(t, 3*time.Second))
	rounds, tortureFired := 0, int64(0)
	for round := 0; round < 500; round++ {
		if round >= 3 && !time.Now().Before(deadline) {
			break
		}
		rounds++
		rng := rand.New(rand.NewSource(seed + int64(round)*7919))
		dir := t.TempDir()
		fs := vfs.NewFault(vfs.OS{}, seed+int64(round))
		st, err := OpenOptions(dir, Options{FS: fs, FlushBytes: 1 << 12})
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: open: %v", seed, round, err)
		}
		fs.AddRule(chaosRules(rng))
		shadow := map[string]*shadowJob{}
		scriptErr := chaosScript(t, rng, st, 40+rng.Intn(80), shadow)
		if scriptErr != nil && st.Failed() == nil && st.ReadOnly() == nil && !isBenignChaosErr(scriptErr) {
			t.Fatalf("CHAOS_SEED=%d round %d: op failed without poisoning or read-only demotion: %v", seed, round, scriptErr)
		}
		st.Close()

		// Recovery under fire: arm transient faults, then reopen. The
		// rule budget is sized within Open's retry budget, so the
		// reopen must succeed — aborting (or quarantining acked data)
		// on a transient recovery fault is exactly the bug this test
		// pins.
		fs.Reset()
		nrules := 1 + rng.Intn(2)
		for i := 0; i < nrules; i++ {
			fs.AddRule(tortureRule(rng))
		}
		firedBefore := fs.Fired()
		re, err := OpenOptions(dir, Options{FS: fs, FlushBytes: 1 << 12})
		roundFired := fs.Fired() - firedBefore
		tortureFired += roundFired
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: tortured reopen failed (%d faults fired): %v",
				seed, round, roundFired, err)
		}
		fs.Reset() // disarm before verification reads and the close
		verifyFloor(t, re, shadow, seed, round)
		if re.Recovery().RetriedOps == 0 && roundFired > 0 {
			t.Fatalf("CHAOS_SEED=%d round %d: %d recovery faults fired but no retries recorded",
				seed, round, roundFired)
		}
		re.Close()

		// Second, clean reopen: the tortured recovery must have left a
		// state a normal recovery fully accepts.
		re2, err := OpenOptions(dir, Options{})
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: clean reopen after torture: %v", seed, round, err)
		}
		verifyFloor(t, re2, shadow, seed, round)
		re2.Close()
	}
	t.Logf("chaos: %d recovery-torture rounds, %d recovery faults fired", rounds, tortureFired)
	if rounds >= 3 && tortureFired == 0 {
		t.Fatalf("CHAOS_SEED=%d: recovery torture fired zero faults across %d rounds — the harness is not injecting", seed, rounds)
	}
}

// TestChaosCrashBoundary: crash the filesystem exactly at a clean
// commit boundary (every sent record acked, nothing buffered), reopen,
// and require state identical to a reference store that ran only the
// acknowledged script — invariant 4, the strongest form.
func TestChaosCrashBoundary(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("CHAOS_SEED=%d", seed)
	deadline := time.Now().Add(chaosBudget(t, 3*time.Second))
	for round := 0; round < 500; round++ {
		if round >= 3 && !time.Now().Before(deadline) {
			t.Logf("chaos: %d crash-boundary rounds", round)
			return
		}
		rng := rand.New(rand.NewSource(seed ^ int64(round*2654435761)))
		dir := t.TempDir()
		fs := vfs.NewFault(vfs.OS{}, seed+int64(round))
		st, err := OpenOptions(dir, Options{FS: fs, FlushBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[string]*shadowJob{}
		if err := chaosScript(t, rng, st, 30+rng.Intn(40), shadow); err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: clean script failed: %v", seed, round, err)
		}
		// Land on a clean boundary: one final commit acks everything,
		// then the "machine" dies.
		if err := st.Commit(); err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: boundary commit: %v", seed, round, err)
		}
		for _, j := range shadow {
			for k, vals := range j.sent {
				j.acked[k] = append(j.acked[k], vals...)
				delete(j.sent, k)
			}
		}
		fs.Crash()
		st.Close()

		re, err := OpenOptions(dir, Options{})
		if err != nil {
			t.Fatalf("CHAOS_SEED=%d round %d: reopen after crash: %v", seed, round, err)
		}
		// The reference store replays the acked model directly.
		refDir := t.TempDir()
		ref, err := OpenOptions(refDir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		replayShadow(t, ref, shadow)
		compareStores(t, re, ref, seed, round)
		re.Close()
		ref.Close()
	}
}

// replayShadow feeds the acked model state into a fresh store. Only
// live jobs matter for the bit-identical comparison: finished and
// dropped jobs left the live set, and execution equality is covered by
// the label/seq checks in verifyFloor-style tests.
func replayShadow(t *testing.T, ref *Store, shadow map[string]*shadowJob) {
	t.Helper()
	for id, j := range shadow {
		if j.finished || j.dropped {
			continue
		}
		if err := ref.Register(id, j.nodes); err != nil {
			t.Fatal(err)
		}
		for key, vals := range j.acked {
			sep := strings.LastIndexByte(key, '|')
			metric := key[:sep]
			node, _ := strconv.Atoi(key[sep+1:])
			offs := make([]time.Duration, len(vals))
			for k := range offs {
				offs[k] = time.Duration(k) * time.Second
			}
			if err := ref.Append(id, metric, node, offs, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Commit(); err != nil {
		t.Fatal(err)
	}
}

// compareStores requires the recovered live set to match the reference
// exactly: same jobs, same per-series values in the same order.
func compareStores(t *testing.T, got, want *Store, seed int64, round int) {
	t.Helper()
	gl, wl := got.Live(), want.Live()
	if len(gl) != len(wl) {
		t.Fatalf("CHAOS_SEED=%d round %d: recovered %d live jobs, want %d", seed, round, len(gl), len(wl))
	}
	wantByID := map[string]LiveJob{}
	for _, lj := range wl {
		wantByID[lj.ID] = lj
	}
	for _, g := range gl {
		w, ok := wantByID[g.ID]
		if !ok {
			t.Fatalf("CHAOS_SEED=%d round %d: unexpected live job %q", seed, round, g.ID)
		}
		if g.Nodes != w.Nodes || g.Samples != w.Samples {
			t.Fatalf("CHAOS_SEED=%d round %d: %q = %d nodes/%d samples, want %d/%d",
				seed, round, g.ID, g.Nodes, g.Samples, w.Nodes, w.Samples)
		}
		gs := map[string][]float64{}
		for _, sr := range g.Series {
			gs[chaosKey(sr.Metric, sr.Node)] = sr.Values
		}
		for _, sr := range w.Series {
			key := chaosKey(sr.Metric, sr.Node)
			rec := gs[key]
			if len(rec) != len(sr.Values) {
				t.Fatalf("CHAOS_SEED=%d round %d: %q series %s has %d samples, want %d",
					seed, round, g.ID, key, len(rec), len(sr.Values))
			}
			for k := range sr.Values {
				if rec[k] != sr.Values[k] {
					t.Fatalf("CHAOS_SEED=%d round %d: %q series %s sample %d differs",
						seed, round, g.ID, key, k)
				}
			}
		}
	}
}
