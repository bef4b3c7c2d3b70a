package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/efd/monitor"
	"repro/internal/eval"
)

// ingestJobsPerCaller is how many live jobs each ingest caller
// forwards; one call carries the next tick of all of them.
const ingestJobsPerCaller = 16

// ingestWorkload: each caller forwards the next one-second tick of its
// 16 live jobs per binary Client.IngestRuns call (256 one-sample runs;
// 3 of the 4 metrics are not in the dictionary). A job that has
// streamed its life gets one final Client.Result; every 4th is then
// labelled with its true label, the rest deleted, and each is replaced
// by a fresh registration. Time goes to client encode, transport, wire
// decode, admission, stream feed, WAL append and the group commit;
// labels drive Learn, segment flushes and WAL compaction.
type ingestWorkload struct {
	online
	callers [callers]*ingestCaller
}

type ingestCaller struct {
	w      *ingestWorkload
	c      int
	rng    *rand.Rand
	jobs   [ingestJobsPerCaller]*liveJob
	nextID int
	done   int // finished jobs

	batches []monitor.RunBatch
	runs    []monitor.Run
	final   latencies
	pairs   []eval.Pair
	ph      phase
}

func (w *ingestWorkload) setup(seed int64, dir string, tc *tracer) error {
	if err := w.start(seed, dir, tc); err != nil {
		return err
	}
	var all []*liveJob
	for c := range w.callers {
		ic := &ingestCaller{
			w:       w,
			c:       c,
			rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(c))),
			batches: make([]monitor.RunBatch, 0, ingestJobsPerCaller),
			runs:    make([]monitor.Run, 0, ingestJobsPerCaller*nodes*len(forwardedMetrics)),
		}
		for k := range ic.jobs {
			j := ic.newJob()
			if err := w.register(j.id); err != nil {
				return err
			}
			// Staggered starts: job k is k/16 of the way through its life,
			// so completions spread evenly over the calls.
			j.acked = k * j.ex.ticks / ingestJobsPerCaller
			ic.jobs[k] = j
			all = append(all, j)
		}
		w.callers[c] = ic
	}
	return w.prefeed(all)
}

func (ic *ingestCaller) newJob() *liveJob {
	ic.nextID++
	return &liveJob{
		id: fmt.Sprintf("ingest-%d-%06d", ic.c, ic.nextID),
		ex: ic.w.pool[ic.rng.Intn(len(ic.w.pool))],
	}
}

func (w *ingestWorkload) run(d time.Duration) (*phase, error) {
	w.log.startTiming()
	ph := &phase{workUnit: "samples", opWork: float64(ingestJobsPerCaller * samplesPerTick), windowed: true}
	ph.timed(w.seed, func(start time.Time) {
		var wg sync.WaitGroup
		for _, ic := range w.callers {
			wg.Add(1)
			go func(ic *ingestCaller) {
				defer wg.Done()
				ic.loop(ph.primary, start.Add(d))
			}(ic)
		}
		wg.Wait()
	})
	var live []*liveJob
	var pairs []eval.Pair
	for _, ic := range w.callers {
		ph.attempted += ic.ph.attempted
		ph.failed += ic.ph.failed
		ph.errs = append(ph.errs, ic.ph.errs...)
		ph.secondary = append(ph.secondary, ic.final...)
		ph.samples += ic.ph.samples
		ph.runs += ic.ph.runs
		ph.unconfiguredSamples += ic.ph.unconfiguredSamples
		pairs = append(pairs, ic.pairs...)
		live = append(live, ic.jobs[:]...)
	}
	ph.fScore = eval.F1Macro(pairs)
	ph.loopOps = ph.attempted
	w.loopCounters(ph)
	if err := w.measureHeap(ph); err != nil {
		return nil, err
	}
	answers := w.quiesceCheck(ph, live)
	if err := w.restartCheck(ph, answers); err != nil {
		return nil, fmt.Errorf("restart check: %w", err)
	}
	return ph, nil
}

// loop is one closed-loop caller: it sends its next call only after
// the reply, and stops at the deadline or at its first failure.
func (ic *ingestCaller) loop(rec *recorder, deadline time.Time) {
	ctx := context.Background()
	cl, tc, log := ic.w.sys.cl, ic.w.sys.tc, ic.w.log
	sent := ingestJobsPerCaller * samplesPerTick
	for time.Now().Before(deadline) {
		ic.batches, ic.runs = ic.batches[:0], ic.runs[:0]
		for _, j := range ic.jobs {
			lo := len(ic.runs)
			ic.runs = j.ex.appendRuns(ic.runs, j.acked, j.acked+1)
			ic.batches = append(ic.batches, monitor.RunBatch{JobID: j.id, Runs: ic.runs[lo:]})
		}
		cctx, cs := tc.begin(ctx, callIngestRuns)
		t0 := time.Now()
		res, err := cl.IngestRuns(cctx, ic.batches)
		t1 := time.Now()
		rec.add(t1, t1.Sub(t0))
		tc.end(cs)
		ic.ph.attempted++
		if err == nil && (res.Accepted != sent || len(res.Unknown) > 0) {
			err = fmt.Errorf("ingest acknowledged %d of %d samples (unknown %v)", res.Accepted, sent, res.Unknown)
		}
		if err != nil {
			ic.ph.fail(err)
			return
		}
		ic.ph.samples += int64(sent)
		ic.ph.runs += int64(len(ic.runs))
		ic.ph.unconfiguredSamples += ingestJobsPerCaller * ic.w.unconfigured
		if log != nil {
			refs := make([]tickRef, len(ic.jobs))
			for k, j := range ic.jobs {
				refs[k] = tickRef{job: j.id, ex: j.ex, lo: j.acked, hi: j.acked + 1}
			}
			log.add(op{kind: opIngestRuns, refs: refs})
		}
		for k, j := range ic.jobs {
			if j.acked++; j.acked == j.ex.ticks {
				if err := ic.finish(ctx, k); err != nil {
					ic.ph.fail(err)
					return
				}
			}
		}
	}
}

// finish takes a job's final poll, labels (every 4th) or deletes it,
// and registers its replacement.
func (ic *ingestCaller) finish(ctx context.Context, k int) error {
	cl, tc, log := ic.w.sys.cl, ic.w.sys.tc, ic.w.log
	j := ic.jobs[k]
	cctx, cs := tc.begin(ctx, callResult)
	t0 := time.Now()
	st, err := cl.Result(cctx, j.id)
	ic.final = append(ic.final, time.Since(t0))
	tc.end(cs)
	ic.ph.attempted++
	if err != nil {
		return fmt.Errorf("final poll of %s: %w", j.id, err)
	}
	if st.JobID != j.id || !st.Complete || st.Total != ic.w.expTotal {
		return fmt.Errorf("final poll of %s: complete=%v total=%d, want complete with %d fingerprints", j.id, st.Complete, st.Total, ic.w.expTotal)
	}
	log.add(op{kind: opResult, job: j.id})
	ic.pairs = append(ic.pairs, eval.Pair{Truth: j.ex.label.App, Pred: st.Top})

	ic.done++
	cctx, cs = tc.begin(ctx, callLifecycle)
	ic.ph.attempted++
	if ic.done%4 == 0 {
		ic.w.learns.Add(1)
		_, err = cl.Label(cctx, j.id, j.ex.label.App, string(j.ex.label.Input))
		log.add(op{kind: opLabel, job: j.id, label: j.ex.label})
	} else {
		err = cl.Delete(cctx, j.id)
		log.add(op{kind: opClose, job: j.id})
	}
	tc.end(cs)
	if err != nil {
		return fmt.Errorf("retire %s: %w", j.id, err)
	}

	nj := ic.newJob()
	cctx, cs = tc.begin(ctx, callLifecycle)
	err = cl.Register(cctx, nj.id, nodes)
	tc.end(cs)
	ic.ph.attempted++
	if err != nil {
		return fmt.Errorf("register %s: %w", nj.id, err)
	}
	log.add(op{kind: opRegister, job: nj.id})
	ic.jobs[k] = nj
	return nil
}
