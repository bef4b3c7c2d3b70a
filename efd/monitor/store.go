// Storage-backed mode: an optional durable telemetry store behind the
// engine (internal/tsdb) makes ingest durable and finished executions
// re-recognizable.
//
// Ingest keeps its zero-dictionary-lock property — the WAL append
// happens on the same per-job columnar runs the stream consumes, and
// one group-commit fsync acknowledges a whole ingest batch. Startup
// replays the store's live jobs into fresh recognition streams, so a
// restarted engine answers exactly as an uninterrupted one; labelled
// jobs become stored executions, served by Series and re-recognized
// on demand (RecognizeStored) after online learning has extended the
// dictionary.
package monitor

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/tsdb"
)

// StoreOptions tune the durable telemetry store opened by OpenStore.
// The zero value is ready for production use.
type StoreOptions struct {
	// FlushBytes is the pending-execution byte estimate beyond which
	// labelling kicks a background flush into a segment file. Default
	// 8 MiB; negative disables automatic flushing.
	FlushBytes int64
	// NoSync skips every fsync — replay correctness is unaffected,
	// only crash durability. For benchmarks and bulk loads.
	NoSync bool
	// DiskLowBytes is the proactive disk-headroom watermark: segment
	// flushes are refused (retryably) while the store volume has less
	// free space, keeping the disk from being driven to hard ENOSPC by
	// the store itself. It also sets the free-space floor the engine
	// requires before resuming from disk-full read-only mode. 0
	// disables the watermark.
	DiskLowBytes int64
}

// OpenStore opens (or creates) a durable telemetry store in dir and
// attaches it: ingest becomes write-ahead logged, and the store's
// live jobs are replayed into fresh recognition streams (honouring
// MaxJobs — set it first). Returns the number of jobs recovered. The
// engine owns the store from here; call CloseStore on shutdown.
func (e *Engine) OpenStore(dir string, opt StoreOptions) (recovered int, err error) {
	st, err := tsdb.OpenOptions(dir, tsdb.Options{
		FlushBytes:   opt.FlushBytes,
		NoSync:       opt.NoSync,
		DiskLowBytes: opt.DiskLowBytes,
		// Store-level instruments from EnableMetrics (zero when metrics
		// are off). They ride in the saved Options, so probe reopens
		// keep observing into the same instruments.
		Inst: e.inst,
	})
	if err != nil {
		return 0, err
	}
	recovered, err = e.AttachStore(st)
	if err != nil {
		st.Close()
		return 0, err
	}
	return recovered, nil
}

// AttachStore backs the engine with an already-open store and replays
// its live jobs into recognition streams. Call before serving traffic
// (and after setting MaxJobs — recovery honours the cap and errors
// rather than silently over-admitting); the engine takes over all
// writes to the store. In-repo plumbing: external embedders cannot
// construct a *tsdb.Store and use OpenStore instead.
func (e *Engine) AttachStore(st *tsdb.Store) (recovered int, err error) {
	live := st.Live()
	if len(live) > e.MaxJobs {
		// Fail before attaching anything, so an embedder can fall back
		// to in-memory mode without a half-attached (and possibly
		// since-closed) store pointer behind the engine.
		return 0, fmt.Errorf("monitor: store holds %d live jobs, exceeding MaxJobs %d; raise the cap or prune the store", len(live), e.MaxJobs)
	}
	// Remember how to reopen this store: should it poison itself at
	// runtime, the engine degrades to memory-only and the reopen probe
	// reopens the same directory with the same options. The probe runs
	// as long as the store stays attached.
	e.stopProbe()
	e.storeDir = st.Dir()
	e.storeOpts = st.Options()
	e.reset(&storeState{mode: storeModeRW, store: st})
	stop := make(chan struct{})
	e.probeMu.Lock()
	e.probeStop = stop
	e.probeMu.Unlock()
	e.probeWG.Add(1)
	go e.probeLoop(stop)
	for _, lj := range live {
		var stream *core.Stream
		nodes := lj.Nodes
		e.dict.Read(func(d *core.Dictionary) { stream = core.NewStream(d, nodes) })
		j := &job{stream: stream, nodes: nodes, samples: lj.Samples, lastOff: lj.LastOffset, st: st}
		// Feeding per-series runs reproduces the pre-crash stream
		// state exactly: the window accumulators are independent per
		// (metric, node, window) and each series' samples replay in
		// their original order.
		for _, run := range lj.Series {
			j.stream.FeedRun(run.Metric, run.Node, run.Offsets, run.Values)
		}
		sh := e.shardFor(lj.ID)
		sh.mu.Lock()
		if _, exists := sh.jobs[lj.ID]; !exists {
			sh.jobs[lj.ID] = j
			e.jobCount.Add(1)
			recovered++
		}
		sh.mu.Unlock()
	}
	e.met.recovered.Store(int64(recovered))
	rec := st.Recovery()
	e.logger().Info("telemetry store recovered",
		"event", "store_recovery",
		"recovered_jobs", recovered,
		"executions", len(st.Executions()),
		"replayed_records", rec.ReplayedRecords,
		"retried_ops", rec.RetriedOps,
		"duration_ms", float64(rec.Duration)/float64(time.Millisecond))
	if rec.QuarantinedSegments > 0 || rec.QuarantinedWALBytes > 0 {
		e.logger().Warn("store quarantined unreadable data during recovery",
			"event", "store_quarantine",
			"segments", rec.QuarantinedSegments,
			"wal_bytes", rec.QuarantinedWALBytes)
	}
	return recovered, nil
}

// Store returns the attached store, or nil. In-repo plumbing, like
// AttachStore.
func (e *Engine) Store() *tsdb.Store { return e.state.Load().store }

// HasStore reports whether a durable store is attached.
func (e *Engine) HasStore() bool { return e.state.Load().store != nil }

// CloseStore flushes pending executions into segments, syncs the WAL,
// and releases the store. A no-op without one. The engine keeps
// serving in-memory afterwards, but durable guarantees end here —
// call it on shutdown only. Stops the reopen probe first, so no reopen
// races the shutdown.
func (e *Engine) CloseStore() error {
	e.stopProbe()
	e.storeReadMu.Lock()
	s := e.reset(detached)
	e.storeReadMu.Unlock()
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Series dumps a job's telemetry from the store: live jobs get a
// snapshot of their accumulated columns, finished ones their stored
// execution.
func (e *Engine) Series(id string) (SeriesDump, error) {
	// The read lock keeps the probe (and CloseStore) from unmapping
	// segment files while this read walks them; see storeReadMu.
	e.storeReadMu.RLock()
	defer e.storeReadMu.RUnlock()
	st := e.state.Load().store
	if st == nil {
		return SeriesDump{}, ErrNoStore
	}
	ns, live, err := st.Series(id)
	if err != nil {
		return SeriesDump{}, fmt.Errorf("%w: no telemetry for %q", ErrUnknownJob, id)
	}
	out := SeriesDump{JobID: id, Source: "stored", Series: []SeriesData{}}
	if live {
		out.Source = "live"
	}
	for _, node := range ns.Nodes() {
		for _, metric := range ns.Metrics() {
			series := ns.Get(node, metric)
			if series == nil {
				continue
			}
			sd := SeriesData{Metric: metric, Node: node, Count: series.Len(), Values: series.Values()}
			// An explicit offset column never sits on the 1 Hz grid,
			// so grid series omit offsets_s.
			if offs := series.OffsetsView(); offs != nil {
				sd.OffsetsS = make([]float64, len(offs))
				for i, off := range offs {
					sd.OffsetsS[i] = off.Seconds()
				}
			}
			out.Series = append(out.Series, sd)
		}
	}
	return out, nil
}

// Executions lists every stored (finished) execution, sorted by
// sequence number.
func (e *Engine) Executions() ([]ExecutionInfo, error) {
	e.storeReadMu.RLock()
	defer e.storeReadMu.RUnlock()
	st := e.state.Load().store
	if st == nil {
		return nil, ErrNoStore
	}
	execs := st.Executions() // already Seq-sorted by the store
	var out []ExecutionInfo  // stays nil when empty (wire-compatible "null")
	for _, x := range execs {
		out = append(out, ExecutionInfo{ID: x.ID, Label: x.Label, Nodes: x.Nodes, Seq: x.Seq, Samples: x.Samples, Stored: x.Stored})
	}
	return out, nil
}

// RecognizeStored re-runs recognition over a stored execution with
// the dictionary as it stands now — the payoff of keeping telemetry:
// labels learned after a job finished still apply to it.
func (e *Engine) RecognizeStored(id string) (State, error) {
	e.storeReadMu.RLock()
	defer e.storeReadMu.RUnlock()
	st := e.state.Load().store
	if st == nil {
		return State{}, ErrNoStore
	}
	ns, err := st.ExecutionSeries(id)
	if err != nil {
		return State{}, fmt.Errorf("%w: no stored execution %q", ErrUnknownJob, id)
	}
	src := core.NewTelemetrySource(ns)
	var out State
	e.dict.Read(func(d *core.Dictionary) {
		res := d.Recognize(src)
		out = State{
			JobID:      id,
			Complete:   true,
			Recognized: res.Recognized(),
			Top:        res.Top(),
			Apps:       res.Apps,
			Votes:      res.Votes(),
			Confidence: res.Confidence(),
			Matched:    res.Matched,
			Total:      res.Total,
		}
	})
	e.met.rerecognitions.Add(1)
	e.observeRecognition(&out)
	return out, nil
}

// storeStats assembles the Stats store section, or nil without a
// store.
func (e *Engine) storeStats() *StoreStats {
	e.storeReadMu.RLock()
	defer e.storeReadMu.RUnlock()
	s := e.state.Load()
	if s.store == nil {
		return nil
	}
	st := s.store.Stats()
	rec := s.store.Recovery()
	out := &StoreStats{
		LiveJobs:            st.LiveJobs,
		PendingJobs:         st.PendingJobs,
		Executions:          st.Executions,
		Segments:            st.Segments,
		WALBytes:            st.WALBytes,
		MmapBytes:           st.MmapBytes,
		AppendedRecords:     st.AppendedRecords,
		Commits:             st.Commits,
		Flushes:             st.Flushes,
		ReplayedRecords:     st.ReplayedRecords,
		QuarantinedWALBytes: st.QuarantinedWALBytes,
		QuarantinedSegments: st.QuarantinedSegments,
		LastFlushError:      st.LastFlushError,
		RecoveredJobs:       e.met.recovered.Load(),
		Rerecognitions:      e.met.rerecognitions.Load(),
		RecoveryRetriedOps:  rec.RetriedOps,
		// Floor seconds, like DegradedForS's wire resolution: recovery
		// of a healthy test store reads a stable 0.
		RecoveryDurationS: int64(rec.Duration / time.Second),
		Disk:              e.diskHealth(s),
	}
	return out
}
