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

const (
	// pollJobs is the poll workload's working set, split evenly between
	// the callers: three quarters complete, one quarter streaming.
	pollJobs = 1024
	// pollWriteEvery makes one op in this many a JSON row ingest.
	pollWriteEvery = 10
)

// pollWorkload: each caller runs a seeded op sequence over its half of
// 1024 jobs. Nine ops in ten are Client.Result on a uniformly drawn
// job; one is a JSON row-form Client.Ingest of the next tick (16
// samples) to one of the caller's streaming jobs. A job that has
// streamed its life is labelled (1 in 4) or deleted and replaced, so
// the complete/streaming split stays constant. Time goes to routing,
// the job lock, the dictionary read lock, the Recognizer, and JSON
// encode/decode of State; JSON ingest and online Learn (dictionary
// write lock) are the writes beside the reads.
type pollWorkload struct {
	online
	callers [callers]*pollCaller
}

// pollSlot is one job position; a finished job's replacement takes
// its slot.
type pollSlot struct {
	*liveJob
	polled       bool  // polled since registration
	ingestSince  bool  // ingested since the last poll
	learnsAtPoll int64 // learns counter read at the last poll
}

type pollCaller struct {
	w      *pollWorkload
	c      int
	rng    *rand.Rand
	slots  []*pollSlot
	inprog []int // slots still streaming
	nextID int
	done   int

	rows        []monitor.Sample
	repeatFinal int64
	ph          phase
}

func (w *pollWorkload) setup(seed int64, dir string, tc *tracer) error {
	if err := w.start(seed, dir, tc); err != nil {
		return err
	}
	var all []*liveJob
	per := pollJobs / callers
	for c := range w.callers {
		pc := &pollCaller{w: w, c: c, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(c)))}
		for k := 0; k < per; k++ {
			s := &pollSlot{liveJob: pc.newJob()}
			if err := w.register(s.id); err != nil {
				return err
			}
			if k < per*3/4 {
				s.acked = s.ex.ticks
			} else {
				s.acked = pc.rng.Intn(s.ex.ticks)
				pc.inprog = append(pc.inprog, k)
			}
			pc.slots = append(pc.slots, s)
			all = append(all, s.liveJob)
		}
		w.callers[c] = pc
	}
	return w.prefeed(all)
}

func (pc *pollCaller) newJob() *liveJob {
	pc.nextID++
	return &liveJob{
		id: fmt.Sprintf("poll-%d-%06d", pc.c, pc.nextID),
		ex: pc.w.pool[pc.rng.Intn(len(pc.w.pool))],
	}
}

func (w *pollWorkload) run(d time.Duration) (*phase, error) {
	w.log.startTiming()
	ph := &phase{workUnit: "polls", opWork: 1, windowed: true}
	ph.timed(w.seed, func(start time.Time) {
		var wg sync.WaitGroup
		for _, pc := range w.callers {
			wg.Add(1)
			go func(pc *pollCaller) {
				defer wg.Done()
				pc.loop(ph.primary, start.Add(d))
			}(pc)
		}
		wg.Wait()
	})
	var live []*liveJob
	for _, pc := range w.callers {
		ph.attempted += pc.ph.attempted
		ph.failed += pc.ph.failed
		ph.errs = append(ph.errs, pc.ph.errs...)
		ph.secondary = append(ph.secondary, pc.ph.secondary...)
		ph.polls += pc.ph.polls
		ph.repeatFinal += pc.repeatFinal
		ph.samples += pc.ph.samples
		ph.runs += pc.ph.runs
		ph.unconfiguredSamples += pc.ph.unconfiguredSamples
		for _, s := range pc.slots {
			live = append(live, s.liveJob)
		}
	}
	ph.loopOps = ph.attempted
	w.loopCounters(ph)
	if err := w.measureHeap(ph); err != nil {
		return nil, err
	}
	answers := w.quiesceCheck(ph, live)
	ph.fScore = eval.F1Macro(finalPairs(live, answers))
	return ph, nil
}

// loop is one closed-loop caller; it stops at the deadline or at its
// first failure.
func (pc *pollCaller) loop(rec *recorder, deadline time.Time) {
	ctx := context.Background()
	for time.Now().Before(deadline) {
		var err error
		if pc.rng.Intn(pollWriteEvery) == 0 {
			err = pc.write(ctx)
		} else {
			err = pc.poll(ctx, rec, pc.slots[pc.rng.Intn(len(pc.slots))])
		}
		if err != nil {
			pc.ph.fail(err)
			return
		}
	}
}

func (pc *pollCaller) poll(ctx context.Context, rec *recorder, s *pollSlot) error {
	w := pc.w
	learns := w.learns.Load()
	cctx, cs := w.sys.tc.begin(ctx, callResult)
	t0 := time.Now()
	st, err := w.sys.cl.Result(cctx, s.id)
	t1 := time.Now()
	rec.add(t1, t1.Sub(t0))
	w.sys.tc.end(cs)
	pc.ph.attempted++
	if err != nil {
		return fmt.Errorf("poll of %s: %w", s.id, err)
	}
	complete := s.acked >= w.completeTicks
	if st.JobID != s.id || st.Complete != complete || (complete && st.Total != w.expTotal) {
		return fmt.Errorf("poll of %s after %d ticks: complete=%v total=%d, want complete=%v with %d fingerprints", s.id, s.acked, st.Complete, st.Total, complete, w.expTotal)
	}
	pc.ph.polls++
	if complete && s.polled && !s.ingestSince && s.learnsAtPoll == learns {
		pc.repeatFinal++
	}
	s.polled, s.ingestSince, s.learnsAtPoll = true, false, learns
	w.log.add(op{kind: opResult, job: s.id})
	return nil
}

// write ingests the next tick of a streaming job as JSON rows.
func (pc *pollCaller) write(ctx context.Context) error {
	w := pc.w
	k := pc.inprog[pc.rng.Intn(len(pc.inprog))]
	s := pc.slots[k]
	pc.rows = s.ex.appendRows(pc.rows[:0], s.acked)
	cctx, cs := w.sys.tc.begin(ctx, callIngestRows)
	t0 := time.Now()
	n, err := w.sys.cl.Ingest(cctx, s.id, pc.rows)
	pc.ph.secondary = append(pc.ph.secondary, time.Since(t0))
	w.sys.tc.end(cs)
	pc.ph.attempted++
	if err == nil && n != len(pc.rows) {
		err = fmt.Errorf("acknowledged %d of %d samples", n, len(pc.rows))
	}
	if err != nil {
		return fmt.Errorf("row ingest to %s: %w", s.id, err)
	}
	w.log.add(op{kind: opIngestRows, job: s.id, refs: []tickRef{{job: s.id, ex: s.ex, lo: s.acked, hi: s.acked + 1}}})
	s.acked++
	s.ingestSince = true
	pc.ph.samples += int64(len(pc.rows))
	pc.ph.runs += int64(len(pc.rows)) // each row is its own (metric, node) run
	pc.ph.unconfiguredSamples += w.unconfigured
	if s.acked < s.ex.ticks {
		return nil
	}
	return pc.replace(ctx, s)
}

// replace labels (1 in 4) or deletes a job that has streamed its life
// and registers a fresh one in its slot.
func (pc *pollCaller) replace(ctx context.Context, s *pollSlot) error {
	w := pc.w
	pc.done++
	cctx, cs := w.sys.tc.begin(ctx, callLifecycle)
	var err error
	if pc.done%4 == 0 {
		w.learns.Add(1)
		_, err = w.sys.cl.Label(cctx, s.id, s.ex.label.App, string(s.ex.label.Input))
		w.log.add(op{kind: opLabel, job: s.id, label: s.ex.label})
	} else {
		err = w.sys.cl.Delete(cctx, s.id)
		w.log.add(op{kind: opClose, job: s.id})
	}
	w.sys.tc.end(cs)
	pc.ph.attempted++
	if err != nil {
		return fmt.Errorf("retire %s: %w", s.id, err)
	}
	nj := pc.newJob()
	cctx, cs = w.sys.tc.begin(ctx, callLifecycle)
	err = w.sys.cl.Register(cctx, nj.id, nodes)
	w.sys.tc.end(cs)
	pc.ph.attempted++
	if err != nil {
		return fmt.Errorf("register %s: %w", nj.id, err)
	}
	w.log.add(op{kind: opRegister, job: nj.id})
	*s = pollSlot{liveJob: nj}
	return nil
}
