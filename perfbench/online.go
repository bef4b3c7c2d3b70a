package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/efd/monitor"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// callers is the number of closed-loop caller goroutines (and
// connections) of the online workloads: one per CPU of the 2-CPU host
// the benchmark was sized on.
const callers = 2

// online is the state the ingest and poll workloads share: inputs,
// the system, and — on the traced instance — the operation log and a
// copy of the set-up dictionary for the layer replays.
type online struct {
	sys   *system
	pool  []*execution
	log   *opLog
	dict0 *core.Dictionary

	expTotal      int   // fingerprints of a complete job
	completeTicks int   // acknowledged ticks at which a job is complete
	unconfigured  int64 // samples per tick for metrics outside the dictionary
	learns        atomic.Int64

	setupLayer map[string]float64
	storeStart monitor.StoreStats
	seed       int64
}

// start builds the dictionary and the telemetry pool from seed and
// starts the system.
func (o *online) start(seed int64, dir string, tc *tracer) error {
	o.seed = seed
	o.setupLayer = make(map[string]float64)
	t := time.Now()
	ds, err := paperGrid(seed)
	if err != nil {
		return err
	}
	o.setupLayer["dataset.generate_s"] = time.Since(t).Seconds()
	t = time.Now()
	dict, _, err := core.Fit(ds, fitConfig(seed))
	if err != nil {
		return err
	}
	o.setupLayer["core.fit_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
	t = time.Now()
	if o.pool, err = simulatePool(seed); err != nil {
		return err
	}
	o.setupLayer["cluster.simulate_s"] = time.Since(t).Seconds()

	cfg := dict.Config()
	var horizon time.Duration
	for _, w := range cfg.Windows {
		horizon = max(horizon, w.End)
	}
	o.completeTicks = int(horizon/telemetry.DefaultPeriod) + 1
	for _, m := range forwardedMetrics {
		configured := false
		for _, c := range cfg.Metrics {
			configured = configured || c == m
		}
		if !configured {
			o.unconfigured += nodes
		}
	}
	if tc != nil {
		o.log = &opLog{}
		if o.dict0, err = cloneDict(dict); err != nil {
			return err
		}
	}
	if o.sys, err = startSystem(dict, dir, seed, tc); err != nil {
		return err
	}
	o.expTotal = expectedTotal(o.sys.eng)
	return nil
}

// register registers a job in process (set-up).
func (o *online) register(id string) error {
	if _, err := o.sys.eng.Register(id, nodes); err != nil {
		return err
	}
	o.log.add(op{kind: opRegister, job: id})
	return nil
}

// prefeed feeds ticks [0, acked) of every job in process, in one
// ingest call and one commit (set-up).
func (o *online) prefeed(jobs []*liveJob) error {
	var refs []tickRef
	for _, j := range jobs {
		if j.acked > 0 {
			refs = append(refs, tickRef{job: j.id, ex: j.ex, lo: 0, hi: j.acked})
		}
	}
	batches, samples := runBatches(refs)
	accepted, unknown, err := o.sys.eng.IngestRuns(batches)
	if err != nil {
		return err
	}
	if accepted != samples || len(unknown) > 0 {
		return fmt.Errorf("prefeed accepted %d of %d samples (unknown %v)", accepted, samples, unknown)
	}
	o.log.add(op{kind: opIngestRuns, refs: refs})
	if st := o.sys.eng.Stats().Store; st != nil {
		o.storeStart = *st
	}
	return nil
}

// quiesceCheck polls every live job through the client once the
// callers have stopped and compares each answer with a reference
// recognition of the job's acknowledged samples. It returns the
// matching answers by job ID.
func (o *online) quiesceCheck(ph *phase, jobs []*liveJob) map[string]monitor.State {
	ctx := context.Background()
	out := make(map[string]monitor.State, len(jobs))
	for _, j := range jobs {
		ph.attempted++
		st, err := o.sys.cl.Result(ctx, j.id)
		if err != nil {
			ph.fail(fmt.Errorf("quiesced poll of %s: %w", j.id, err))
			continue
		}
		got, _ := json.Marshal(st)
		want, _ := json.Marshal(referenceState(o.sys.eng, j))
		if !bytes.Equal(got, want) {
			ph.fail(fmt.Errorf("job %s answered %s, reference %s", j.id, got, want))
			continue
		}
		out[j.id] = st
	}
	return out
}

// finalPairs scores the complete answers against the jobs' true
// applications.
func finalPairs(jobs []*liveJob, answers map[string]monitor.State) []eval.Pair {
	var pairs []eval.Pair
	for _, j := range jobs {
		if st, ok := answers[j.id]; ok && st.Complete {
			pairs = append(pairs, eval.Pair{Truth: j.ex.label.App, Pred: st.Top})
		}
	}
	return pairs
}

// loopCounters reads the counters the closed loop moved. A client
// retry counts as a failed op: the answer it eventually got was not the
// first one asked for.
func (o *online) loopCounters(ph *phase) {
	for k, v := range o.setupLayer {
		ph.setLayer(k, v)
	}
	stats := o.sys.eng.Stats()
	ph.setLayer("monitor.shed", float64(stats.IngestShedTotal))
	retries := o.sys.retries.Load()
	ph.setLayer("client.retries", float64(retries))
	if retries > 0 {
		ph.failed += retries
		ph.errs = append(ph.errs, fmt.Sprintf("%d client retries", retries))
	}
	if st := stats.Store; st != nil {
		ph.setLayer("tsdb.flushes", float64(st.Flushes-o.storeStart.Flushes))
		ph.setLayer("tsdb.records_per_commit", ratio(float64(st.AppendedRecords-o.storeStart.AppendedRecords), float64(st.Commits-o.storeStart.Commits)))
	}
}

// measureHeap flushes the store's labelled executions into a segment,
// as it does by itself each FlushBytes, then reads the live heap:
// without the flush the number would depend on where in that sawtooth
// the phase happened to end.
func (o *online) measureHeap(ph *phase) error {
	if st := o.sys.eng.Store(); st != nil {
		if err := st.Flush(); err != nil {
			return fmt.Errorf("flush before heap reading: %w", err)
		}
	}
	ph.heapMB = liveHeapMB()
	return nil
}

// restartCheck closes the engine, reopens its data directory with
// Engine.OpenStore on the dictionary as it stood, and requires every
// live job to answer exactly as before the close — the acknowledged-
// data contract. The reopen time is tsdb.reopen_s.
func (o *online) restartCheck(ph *phase, before map[string]monitor.State) error {
	if err := o.sys.stopServing(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := o.sys.eng.SaveDictionary(&buf); err != nil {
		return err
	}
	if err := o.sys.eng.CloseStore(); err != nil {
		return err
	}
	d, err := core.Load(&buf)
	if err != nil {
		return err
	}
	eng := monitor.New(d)
	eng.EnableMetrics(obs.NewRegistry())
	start := time.Now()
	if _, err := eng.OpenStore(o.sys.dir, storeOptions); err != nil {
		return err
	}
	ph.setLayer("tsdb.reopen_s", time.Since(start).Seconds())
	for _, id := range sortedKeys(before) {
		ph.attempted++
		jb, ok := eng.Lookup(id)
		if !ok {
			ph.fail(fmt.Errorf("job %s missing after reopen", id))
			continue
		}
		st, err := jb.Result()
		if err != nil {
			ph.fail(fmt.Errorf("job %s after reopen: %w", id, err))
			continue
		}
		got, _ := json.Marshal(st)
		want, _ := json.Marshal(before[id])
		if !bytes.Equal(got, want) {
			ph.fail(fmt.Errorf("job %s after reopen answered %s, before %s", id, got, want))
		}
	}
	return eng.CloseStore()
}

func (o *online) close() error {
	if o.sys == nil {
		return nil
	}
	return o.sys.close()
}

// layers replays the recorded operations (traced instance only).
func (o *online) layers(ph *phase, scratch string) error {
	if o.log == nil {
		return fmt.Errorf("instance was not set up traced")
	}
	return replayLayers(ph, o.log, o.dict0, scratch)
}
