package monitor

// Observability: the engine's structured event log and its metric
// registration.
//
// Both are opt-in and zero-cost when off. Logging goes through an
// injectable *slog.Logger (Engine.Logger); a nil logger discards.
// Metrics are registered once by EnableMetrics over the engine's
// existing atomic counters (CounterFunc/GaugeFunc — no second
// bookkeeping site), plus a small set of latency/distribution
// histograms whose fast paths are alloc-free, so the instrumented
// ingest path stays at zero allocations (pinned by
// TestIngestInstrumentedAllocFree).

import (
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// discardLogger backs a nil Engine.Logger so event sites never branch.
var discardLogger = slog.New(slog.DiscardHandler)

// logger resolves the engine's event logger.
func (e *Engine) logger() *slog.Logger {
	if e.Logger != nil {
		return e.Logger
	}
	return discardLogger
}

// engineObs holds the engine's latency and distribution instruments.
// nil (EnableMetrics never called) means the ingest path takes no
// clock readings at all.
type engineObs struct {
	ingestSeconds *obs.Histogram
	batchSamples  *obs.Histogram
	confidence    *obs.Histogram
	voteMargin    *obs.Histogram
}

// obsStart reads the clock iff metrics are enabled; a zero start makes
// the matching observe calls no-ops.
func (e *Engine) obsStart() time.Time {
	if e.obsm == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeIngest records one engine-level ingest call: end-to-end
// latency (feed + WAL append + group commit) and accepted batch size.
func (e *Engine) observeIngest(start time.Time, accepted int) {
	if start.IsZero() {
		return
	}
	e.obsm.ingestSeconds.Observe(time.Since(start).Seconds())
	e.obsm.batchSamples.Observe(float64(accepted))
}

// observeRecognition records the confidence and vote margin of one
// answered recognition (live or stored).
func (e *Engine) observeRecognition(st *State) {
	o := e.obsm
	if o == nil {
		return
	}
	o.confidence.Observe(st.Confidence)
	o.voteMargin.Observe(voteMargin(st.Votes))
}

// voteMargin is the gap between the top and runner-up vote counts — a
// separation signal orthogonal to the normalized Confidence score.
func voteMargin(votes map[string]int) float64 {
	top, second := 0, 0
	for _, v := range votes {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	return float64(top - second)
}

// EnableMetrics registers the engine's metric families on reg:
// counters and gauges read the engine's existing atomics at scrape
// time (no double bookkeeping), histograms observe on the ingest and
// recognition paths, and the attached store's own operations
// (WAL append, group commit, flush, mmap reads, recovery) report
// through tsdb instruments that survive probe reopens.
//
// Call exactly once, before OpenStore and before serving traffic —
// the store instruments only flow into stores opened after this call.
func (e *Engine) EnableMetrics(reg *obs.Registry) {
	m := &e.met
	reg.CounterFunc("efd_engine_jobs_registered_total", "", "jobs registered since start", m.registered.Load)
	reg.CounterFunc("efd_engine_jobs_deleted_total", "", "jobs closed (discarded) since start", m.deleted.Load)
	reg.CounterFunc("efd_engine_ingest_batches_total", "", "ingest batches attempted", m.sampleBatches.Load)
	reg.CounterFunc("efd_engine_samples_accepted_total", "", "telemetry samples fed into streams", m.samplesAccepted.Load)
	reg.CounterFunc("efd_engine_batches_rejected_total", "", "ingest batches rejected by validation", m.batchesRejected.Load)
	reg.CounterFunc("efd_engine_ingest_shed_total", "", "ingest requests shed by the admission gate", m.shed.Load)
	reg.CounterFunc("efd_engine_recognitions_total", "", "live recognition answers served", m.recognitions.Load)
	reg.CounterFunc("efd_engine_rerecognitions_total", "", "stored executions re-recognized", m.rerecognitions.Load)
	reg.CounterFunc("efd_engine_jobs_recovered", "", "jobs replayed from the store at startup", m.recovered.Load)
	reg.CounterFunc("efd_engine_store_probe_attempts_total", "", "store reopen probe attempts", m.probeAttempts.Load)
	reg.CounterFunc("efd_engine_store_reopens_total", "", "successful store reopens", m.probeReopens.Load)
	reg.CounterFunc("efd_engine_store_degraded_total", "", "transitions into degraded (memory-only) mode", m.storeDegraded.Load)
	reg.CounterFunc("efd_engine_store_readonly_total", "", "transitions into disk-full read-only mode", m.storeReadonly.Load)
	reg.CounterFunc("efd_engine_store_healed_total", "", "store heals back into durable mode", m.storeHealed.Load)
	reg.CounterFunc("efd_dict_learns_total", "", "executions learned into the dictionary", m.learned.Load)

	reg.GaugeFunc("efd_engine_live_jobs", "", "currently tracked jobs", func() float64 {
		return float64(e.jobCount.Load())
	})
	reg.GaugeFunc("efd_engine_ingest_inflight_bytes", "", "payload bytes admitted and in flight", func() float64 {
		return float64(e.inflightBytes.Load())
	})
	reg.GaugeFunc("efd_engine_ingest_inflight_batches", "", "ingest requests admitted and in flight", func() float64 {
		return float64(e.inflightBatches.Load())
	})
	reg.GaugeFunc("efd_engine_store_mode", "", "store mode: 0 none, 1 rw, 2 degraded, 3 readonly", func() float64 {
		return float64(e.state.Load().mode)
	})
	reg.GaugeFunc("efd_dict_keys", "", "fingerprint keys in the dictionary", func() float64 {
		var n int
		e.dict.Read(func(d *core.Dictionary) { n = d.Stats().Keys })
		return float64(n)
	})
	reg.GaugeFunc("efd_dict_labels", "", "distinct labels in the dictionary", func() float64 {
		var n int
		e.dict.Read(func(d *core.Dictionary) { n = d.Stats().Labels })
		return float64(n)
	})

	// Store-level gauges resolve the current store incarnation at
	// scrape time; without one they read 0.
	storeGauge := func(name, help string, read func(*tsdb.Store) float64) {
		reg.GaugeFunc(name, "", help, func() float64 {
			if st := e.state.Load().store; st != nil {
				return read(st)
			}
			return 0
		})
	}
	storeGauge("efd_tsdb_wal_bytes", "bytes in the write-ahead log", func(st *tsdb.Store) float64 {
		return float64(st.Stats().WALBytes)
	})
	storeGauge("efd_tsdb_mmap_bytes", "bytes of mapped segment data", func(st *tsdb.Store) float64 {
		return float64(st.Stats().MmapBytes)
	})
	storeGauge("efd_tsdb_segments", "flushed segment files", func(st *tsdb.Store) float64 {
		return float64(st.Stats().Segments)
	})
	storeGauge("efd_tsdb_executions", "stored executions", func(st *tsdb.Store) float64 {
		return float64(st.Stats().Executions)
	})
	storeGauge("efd_tsdb_recovery_seconds", "wall-clock duration of the last store recovery", func(st *tsdb.Store) float64 {
		return st.Recovery().Duration.Seconds()
	})
	storeGauge("efd_tsdb_recovery_retried_ops", "I/O retries the last recovery spent", func(st *tsdb.Store) float64 {
		return float64(st.Recovery().RetriedOps)
	})

	e.obsm = &engineObs{
		ingestSeconds: reg.Histogram("efd_engine_ingest_seconds", "",
			"engine-side latency of one ingest call (feed + WAL append + group commit)",
			obs.ExpBuckets(1e-5, 4, 12)),
		batchSamples: reg.Histogram("efd_engine_ingest_batch_samples", "",
			"samples accepted per ingest call",
			obs.ExpBuckets(1, 4, 12)),
		confidence: reg.Histogram("efd_engine_recognition_confidence", "",
			"confidence of answered recognitions",
			[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}),
		voteMargin: reg.Histogram("efd_engine_recognition_vote_margin", "",
			"vote gap between the top and runner-up labels",
			obs.ExpBuckets(1, 2, 12)),
	}
	e.inst = tsdb.Instruments{
		AppendSeconds: reg.Histogram("efd_tsdb_wal_append_seconds", "",
			"WAL append latency (encode + CRC + buffered write, no fsync)",
			obs.ExpBuckets(1e-7, 4, 14)),
		CommitSeconds: reg.Histogram("efd_tsdb_commit_seconds", "",
			"group-commit fsync latency",
			obs.ExpBuckets(1e-6, 4, 14)),
		CommitRecords: reg.Histogram("efd_tsdb_commit_batch_records", "",
			"WAL records made durable per group-commit fsync",
			obs.ExpBuckets(1, 4, 10)),
		FlushSeconds: reg.Histogram("efd_tsdb_flush_seconds", "",
			"segment flush latency",
			obs.ExpBuckets(1e-4, 4, 10)),
		FlushBytes: reg.Histogram("efd_tsdb_flush_bytes", "",
			"segment file bytes per flush",
			obs.ExpBuckets(4096, 4, 10)),
		MmapReads: reg.Counter("efd_tsdb_mmap_reads_total", "",
			"stored-execution reads served from mapped segments"),
	}
}
