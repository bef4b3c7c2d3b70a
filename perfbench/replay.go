package main

// Layer replays. The monitor, tsdb, core and wire layers sit below the
// server handler, where the benchmark cannot put a span without
// changing the program. The traced instance therefore records its
// engine-level operations — set-up included, so the replay starts from
// the same state — and replays a prefix of them, single-threaded,
// through each layer's public entry points: Engine/Job methods,
// Store.Append/Commit, Stream.FeedRun/Recognize, and the wire codec.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// replayCap bounds the timed operations recorded for replay.
const replayCap = 3000

type opKind uint8

const (
	opRegister opKind = iota
	opIngestRuns
	opIngestRows
	opResult
	opLabel
	opClose
)

// tickRef is ticks [lo, hi) of one job's execution.
type tickRef struct {
	job    string
	ex     *execution
	lo, hi int
}

// op is one recorded engine-level operation.
type op struct {
	kind  opKind
	timed bool
	job   string
	label apps.Label
	refs  []tickRef // opIngestRuns: one per job; opIngestRows: one tick
}

// opLog records operations; a nil log records nothing.
type opLog struct {
	mu     sync.Mutex
	ops    []op
	timing bool // set when the timed phase starts
	timed  int
	full   bool
}

func (l *opLog) add(o op) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return
	}
	if o.timed = l.timing; o.timed {
		if l.timed++; l.timed > replayCap {
			// Stop for good: every job's recorded operations stay a
			// prefix of what it really saw.
			l.full = true
			return
		}
	}
	l.ops = append(l.ops, o)
}

func (l *opLog) startTiming() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.timing = true
	l.mu.Unlock()
}

// runBatches rebuilds an ingest call's batches.
func runBatches(refs []tickRef) (batches []monitor.RunBatch, samples int) {
	for _, r := range refs {
		batches = append(batches, monitor.RunBatch{JobID: r.job, Runs: r.ex.appendRuns(nil, r.lo, r.hi)})
		samples += samplesPerTick * (r.hi - r.lo)
	}
	return batches, samples
}

// cloneDict deep-copies a dictionary through its saved form.
func cloneDict(d *core.Dictionary) (*core.Dictionary, error) {
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}

// layerAgg sums one replayed operation kind.
type layerAgg struct {
	n  float64
	ns time.Duration
}

func (a *layerAgg) add(d time.Duration, n float64) { a.ns += d; a.n += n }

func (a *layerAgg) per(unit time.Duration) float64 {
	return ratio(float64(a.ns)/float64(unit), a.n)
}

// replayLayers replays log through the monitor, core, tsdb and wire
// layers, each on its own copy of the set-up dictionary dict (which it
// does not modify), and sets the per-op layer metrics on ph.
func replayLayers(ph *phase, log *opLog, dict *core.Dictionary, scratch string) error {
	log.mu.Lock()
	ops := log.ops
	log.mu.Unlock()
	if err := replayMonitor(ph, ops, dict, filepath.Join(scratch, "replay-monitor")); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	if err := replayCore(ph, ops, dict); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := replayTSDB(ph, ops, filepath.Join(scratch, "replay-tsdb")); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	replayWire(ph, ops)
	return nil
}

// replayMonitor drives a fresh engine — metrics on, storeOptions —
// through Engine.IngestRuns, Job.Ingest, Job.Result, Job.Label and
// Register/Close.
func replayMonitor(ph *phase, ops []op, dict *core.Dictionary, dir string) error {
	d, err := cloneDict(dict)
	if err != nil {
		return err
	}
	eng := monitor.New(d)
	eng.EnableMetrics(obs.NewRegistry())
	if _, err := eng.OpenStore(dir, storeOptions); err != nil {
		return err
	}
	var runs, rows, result, label, life layerAgg
	err = func() error {
		for _, o := range ops {
			var agg *layerAgg
			start := time.Now()
			switch o.kind {
			case opRegister:
				_, err = eng.Register(o.job, nodes)
				agg = &life
			case opIngestRuns:
				batches, _ := runBatches(o.refs)
				start = time.Now()
				_, _, err = eng.IngestRuns(batches)
				agg = &runs
			case opIngestRows:
				r := o.refs[0]
				samples := r.ex.appendRows(nil, r.lo)
				jb, ok := eng.Lookup(o.job)
				if !ok {
					return fmt.Errorf("%w: %s", monitor.ErrUnknownJob, o.job)
				}
				start = time.Now()
				_, err = jb.Ingest(samples)
				agg = &rows
			default:
				jb, ok := eng.Lookup(o.job)
				if !ok {
					return fmt.Errorf("%w: %s", monitor.ErrUnknownJob, o.job)
				}
				start = time.Now()
				switch o.kind {
				case opResult:
					_, err = jb.Result()
					agg = &result
				case opLabel:
					_, err = jb.Label(o.label.App, string(o.label.Input))
					agg = &label
				case opClose:
					err = jb.Close()
					agg = &life
				}
			}
			if err != nil {
				return err
			}
			if o.timed {
				agg.add(time.Since(start), 1)
			}
		}
		return nil
	}()
	if cerr := eng.CloseStore(); err == nil {
		err = cerr
	}
	ph.setLayer("monitor.ingest_runs_us", runs.per(time.Microsecond))
	ph.setLayer("monitor.ingest_rows_us", rows.per(time.Microsecond))
	ph.setLayer("monitor.result_us", result.per(time.Microsecond))
	ph.setLayer("monitor.label_ms", label.per(time.Millisecond))
	ph.setLayer("monitor.lifecycle_us", life.per(time.Microsecond))
	return err
}

// replayCore feeds fresh streams run by run and recognizes them,
// learning labelled jobs into its own dictionary copy.
func replayCore(ph *phase, ops []op, dict *core.Dictionary) error {
	d, err := cloneDict(dict)
	if err != nil {
		return err
	}
	streams := make(map[string]*core.Stream)
	var feed, recog layerAgg
	feedRuns := func(s *core.Stream, r tickRef, timed bool) {
		start := time.Now()
		for n := 0; n < nodes; n++ {
			for m, metric := range forwardedMetrics {
				s.FeedRun(metric, n, gridOffs[r.lo:r.hi], r.ex.vals[n][m][r.lo:r.hi])
			}
		}
		if timed {
			feed.add(time.Since(start), float64(nodes*len(forwardedMetrics)))
		}
	}
	for _, o := range ops {
		switch o.kind {
		case opRegister:
			streams[o.job] = core.NewStream(d, nodes)
		case opIngestRuns, opIngestRows:
			for _, r := range o.refs {
				s := streams[r.job]
				if s == nil {
					return fmt.Errorf("unknown job %s", r.job)
				}
				feedRuns(s, r, o.timed)
			}
		case opResult:
			s := streams[o.job]
			if s == nil {
				return fmt.Errorf("unknown job %s", o.job)
			}
			start := time.Now()
			res := s.Recognize()
			if o.timed {
				recog.add(time.Since(start), 1)
			}
			_ = res.Top()
		case opLabel:
			d.Learn(streams[o.job], o.label)
			delete(streams, o.job)
		case opClose:
			delete(streams, o.job)
		}
	}
	ph.setLayer("core.feedrun_ns", feed.per(time.Nanosecond))
	ph.setLayer("core.recognize_us", recog.per(time.Microsecond))
	return nil
}

// replayTSDB drives a fresh store through Register, Append per run,
// Commit per call, Finish and Drop, then times one explicit Flush of
// the labelled executions. Unlike the timed phases it keeps fsync on,
// so tsdb.commit_us is what a durable deployment pays per call; a
// timing vfs.FS under it counts the writes and times the fsyncs per
// replayed call.
func replayTSDB(ph *phase, ops []op, dir string) error {
	var fc fsCounters
	st, err := tsdb.OpenOptions(dir, tsdb.Options{FS: timingFS{FS: vfs.OS{}, c: &fc}})
	if err != nil {
		return err
	}
	var appendAgg, commitAgg, walBytes layerAgg
	var calls float64
	var base fsCounts
	var flushMS float64
	err = func() error {
		for _, o := range ops {
			if o.timed && calls == 0 {
				base = fc.snapshot()
			}
			if o.timed {
				calls++
			}
			switch o.kind {
			case opRegister:
				if err := st.Register(o.job, nodes); err != nil {
					return err
				}
			case opIngestRuns, opIngestRows:
				bytes0 := fc.writeBytes.Load()
				start := time.Now()
				samples := 0
				for _, r := range o.refs {
					for n := 0; n < nodes; n++ {
						for m, metric := range forwardedMetrics {
							if err := st.Append(r.job, metric, n, gridOffs[r.lo:r.hi], r.ex.vals[n][m][r.lo:r.hi]); err != nil {
								return err
							}
						}
					}
					samples += samplesPerTick * (r.hi - r.lo)
				}
				mid := time.Now()
				if err := st.Commit(); err != nil {
					return err
				}
				if o.timed {
					appendAgg.add(mid.Sub(start), float64(len(o.refs)*nodes*len(forwardedMetrics)))
					commitAgg.add(time.Since(mid), 1)
					walBytes.add(time.Duration(fc.writeBytes.Load()-bytes0), float64(samples))
				}
			case opLabel:
				if err := st.Finish(o.job, o.label.String()); err != nil {
					return err
				}
			case opClose:
				if err := st.Drop(o.job); err != nil {
					return err
				}
			}
		}
		end := fc.snapshot()
		ph.setLayer("vfs.sync_per_call", ratio(float64(end.syncs-base.syncs), calls))
		ph.setLayer("vfs.sync_us", ratio(usOf(time.Duration(end.syncNS-base.syncNS)), float64(end.syncs-base.syncs)))
		ph.setLayer("vfs.write_per_call", ratio(float64(end.writes-base.writes), calls))
		if st.Stats().PendingJobs > 0 {
			start := time.Now()
			if err := st.Flush(); err != nil {
				return err
			}
			flushMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		return nil
	}()
	err = errors.Join(err, st.Close())
	ph.setLayer("tsdb.append_us", appendAgg.per(time.Microsecond))
	ph.setLayer("tsdb.commit_us", commitAgg.per(time.Microsecond))
	ph.setLayer("tsdb.wal_bytes_per_sample", walBytes.per(1))
	ph.setLayer("tsdb.flush_ms", flushMS)
	return err
}

// fsCounters count and time a store's writes and fsyncs.
type fsCounters struct{ syncs, syncNS, writes, writeBytes atomic.Int64 }

type fsCounts struct{ syncs, syncNS, writes int64 }

func (c *fsCounters) snapshot() fsCounts {
	return fsCounts{syncs: c.syncs.Load(), syncNS: c.syncNS.Load(), writes: c.writes.Load()}
}

// timingFS is a vfs.FS that counts and times through fsCounters.
type timingFS struct {
	vfs.FS
	c *fsCounters
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, c: f.c}, nil
}

func (f timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, c: f.c}, nil
}

func (f timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	f.c.syncs.Add(1)
	f.c.syncNS.Add(int64(time.Since(start)))
	return err
}

type timingFile struct {
	vfs.File
	c *fsCounters
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.c.writes.Add(1)
	t.c.writeBytes.Add(int64(n))
	return n, err
}

func (t *timingFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.c.syncs.Add(1)
	t.c.syncNS.Add(int64(time.Since(start)))
	return err
}

// replayWire encodes each timed ingest call's runs the way
// Client.IngestRuns does (AppendRun + AppendFrame) and decodes them the
// way the server does (WalkFrames + DecodeRunInto).
func replayWire(ph *phase, ops []op) {
	var enc, dec layerAgg
	var frameBytes, samples float64
	var payload, frames []byte
	var offs []time.Duration
	var vals []float64
	for _, o := range ops {
		if o.kind != opIngestRuns || !o.timed {
			continue
		}
		batches, n := runBatches(o.refs)
		start := time.Now()
		frames = frames[:0]
		for _, b := range batches {
			for _, run := range b.Runs {
				payload = wire.AppendRun(payload[:0], b.JobID, run.Metric, run.Node, run.Offsets, run.Values)
				frames = wire.AppendFrame(frames, payload)
			}
		}
		enc.add(time.Since(start), 1)
		start = time.Now()
		wire.WalkFrames(frames, func(p []byte) error {
			rec, err := wire.DecodeRunInto(p, offs[:0], vals[:0])
			offs, vals = rec.Offs, rec.Vals
			return err
		})
		dec.add(time.Since(start), 1)
		frameBytes += float64(len(frames))
		samples += float64(n)
	}
	ph.setLayer("wire.encode_us", enc.per(time.Microsecond))
	ph.setLayer("wire.decode_us", dec.per(time.Microsecond))
	ph.setLayer("wire.bytes_per_sample", ratio(frameBytes, samples))
}
