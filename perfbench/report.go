package main

import (
	"fmt"
	"runtime"
	"time"
)

// phase is the outcome of one timed phase plus its answer checks.
type phase struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	errs      []string // first failures, for the report
	loopOps   int64    // ops attempted in the closed loop, before the checks

	// primary records the workload's main call: Client.IngestRuns
	// (ingest), Client.Result (poll), NormalFold (learn); each moves
	// opWork units of work: acknowledged samples, polls, folds.
	// secondary is the call beside it: the final Client.Result of each
	// job (ingest), the JSON Client.Ingest (poll). windowed selects
	// medians over one-second windows for the e2e numbers.
	primary   *recorder
	secondary latencies
	opWork    float64
	workUnit  string
	windowed  bool

	setupS     float64
	setups     []float64
	heapMB     float64
	allocBytes uint64 // allocated during the closed loop
	gcCycles   float64

	// fScore is the macro F1 of the answers the phase checked: final
	// polls against true labels (ingest, poll), NormalFold (learn).
	fScore float64

	// Workload properties later claims cite.
	repeatFinal, polls  int64 // polls of an unchanged complete job, all polls
	samples, runs       int64 // samples and runs sent in ingest calls
	unconfiguredSamples int64 // of which for metrics outside the dictionary

	// layer holds per-layer values the workload measured itself:
	// set-up components, replays, store counters.
	layer map[string]float64
	tc    *tracer
}

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

func (ph *phase) setLayer(name string, v float64) {
	if ph.layer == nil {
		ph.layer = make(map[string]float64)
	}
	ph.layer[name] = v
}

func (ph *phase) correct() bool { return ph.failed == 0 && ph.attempted > 0 }

// timed runs a workload's closed loop, which starts at start, reading
// the Go runtime's allocation and GC counters around it; allocations
// are reported per op attempted in the loop.
func (ph *phase) timed(seed int64, loop func(start time.Time)) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ph.primary = newRecorder(start, seed)
	loop(start)
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = float64(after.NumGC - before.NumGC)
}

// liveHeapMB is the live heap after a forced GC, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEnd lists the metrics every workload reports with --trace 0,
// in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"heap_mb", "MiB"},
}

// windows returns the whole one-second windows of the closed loop; the
// partial last second is dropped.
func (ph *phase) windows() []window {
	ws := ph.primary.windows
	return ws[:min(len(ws), int(ph.elapsed/time.Second))]
}

// summary is the e2e throughput, p50 and tail of the primary call. For
// the online workloads each is the median over one-second windows, so
// a second in which the host stalled the whole loop (a neighbour's
// burst, a GC storm) moves the run's number by one window at most.
// learn's ops are too long for windows and use the whole run, whose
// tail is the highest percentile with ten folds beyond it.
func (ph *phase) summary() (tput, p50, tail float64) {
	if !ph.windowed {
		all := ph.primary.all()
		return ratio(float64(ph.primary.n)*ph.opWork, ph.elapsed.Seconds()), all.quantileMS(0.5), all.quantileMS(tailQuantile(len(all)))
	}
	var t, m, q []float64
	for _, w := range ph.windows() {
		t = append(t, float64(w.n)*ph.opWork)
		m = append(m, w.lat.quantileMS(0.5))
		q = append(q, w.lat.quantileMS(tailQuantile(int(w.n))))
	}
	return medianFloat(t), medianFloat(m), medianFloat(q)
}

func (ph *phase) e2eMetrics() map[string]metric {
	tput, p50, tail := ph.summary()
	vals := map[string]float64{
		"setup_s":    ph.setupS,
		"throughput": tput,
		"p50_ms":     p50,
		"p99_ms":     tail,
		"heap_mb":    ph.heapMB,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// printE2E prints the end-to-end metrics under the workload-specific
// names performance claims cite, with units and sample counts.
func (ph *phase) printE2E(name string) {
	p := func(metric string, v float64, unit, note string) {
		fmt.Printf("e2e %-22s %14.6g %-10s %s\n", metric, v, unit, note)
	}
	n := fmt.Sprintf("(n=%d)", ph.primary.n)
	tput, p50, tail := ph.summary()
	if ph.windowed {
		ws := ph.windows()
		n = fmt.Sprintf("(median of %d one-second windows, n=%d)", len(ws), ph.primary.n)
		var t []float64
		for _, w := range ws {
			t = append(t, float64(w.n)*ph.opWork)
		}
		fmt.Printf("windows: %s per second %.4g\n", ph.workUnit, t)
	}
	p("setup_s", ph.setupS, "s", fmt.Sprintf("(median of set-ups %.3g)", ph.setups))
	p("fail_ratio", ratio(float64(ph.failed), float64(ph.attempted)), "ratio", fmt.Sprintf("(%d of %d)", ph.failed, ph.attempted))
	p("heap_mb", ph.heapMB, "MiB", "")
	switch name {
	case "ingest":
		p("ingest_samples_per_s", tput, "samples/s", n)
		p("ingest_p50_ms", p50, "ms", n)
		p("ingest_p99_ms", tail, "ms", n)
		p("final_poll_p50_ms", ph.secondary.quantileMS(0.5), "ms", fmt.Sprintf("(n=%d)", len(ph.secondary)))
		p("online_f_score", ph.fScore, "macro-F1", "(final polls vs true labels)")
	case "poll":
		p("polls_per_s", tput, "1/s", n)
		p("poll_p50_us", 1000*p50, "us", n)
		p("poll_p99_us", 1000*tail, "us", n)
		p("json_ingest_p50_ms", ph.secondary.quantileMS(0.5), "ms", fmt.Sprintf("(n=%d)", len(ph.secondary)))
		p("online_f_score", ph.fScore, "macro-F1", "(complete jobs vs true labels)")
	case "learn":
		p("learn_s", p50/1000, "s", n)
		p("learn_tail_s", tail/1000, "s", fmt.Sprintf("(p%.4g)", 100*tailQuantile(int(ph.primary.n))))
		p("f_score", ph.fScore, "macro-F1", "(NormalFold EFD)")
	}
	p("repeat_final_share", ratio(float64(ph.repeatFinal), float64(ph.polls)), "share", fmt.Sprintf("(%d of %d polls)", ph.repeatFinal, ph.polls))
	p("samples_per_run", ratio(float64(ph.samples), float64(ph.runs)), "samples", "")
	p("unconfigured_share", ratio(float64(ph.unconfiguredSamples), float64(ph.samples)), "share", "")
	for _, e := range ph.errs {
		fmt.Printf("failure: %s\n", e)
	}
}

// layerMetrics lists the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json's order. A layer a workload does not
// touch reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"client.self_us", "us"},
	{"client.retries", "count"},
	{"transport.us", "us"},
	{"transport.req_bytes", "B"},
	{"transport.resp_bytes", "B"},
	{"server.handler_us.samples", "us"},
	{"server.handler_us.result", "us"},
	{"server.handler_us.register", "us"},
	{"server.handler_us.label", "us"},
	{"server.handler_us.delete", "us"},
	{"server.non2xx", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.bytes_per_sample", "B"},
	{"monitor.ingest_runs_us", "us"},
	{"monitor.ingest_rows_us", "us"},
	{"monitor.result_us", "us"},
	{"monitor.label_ms", "ms"},
	{"monitor.lifecycle_us", "us"},
	{"monitor.shed", "count"},
	{"core.feedrun_ns", "ns"},
	{"core.recognize_us", "us"},
	{"core.fit_ms", "ms"},
	{"core.classify_us", "us"},
	{"tsdb.append_us", "us"},
	{"tsdb.commit_us", "us"},
	{"tsdb.records_per_commit", "count"},
	{"tsdb.wal_bytes_per_sample", "B"},
	{"tsdb.flushes", "count"},
	{"tsdb.flush_ms", "ms"},
	{"tsdb.reopen_s", "s"},
	{"vfs.sync_per_call", "count"},
	{"vfs.sync_us", "us"},
	{"vfs.write_per_call", "count"},
	{"dataset.generate_s", "s"},
	{"cluster.simulate_s", "s"},
	{"eval.evaluate_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cycles", "count"},
	{"poll.repeat_final_share", "share"},
	{"ingest.samples_per_run", "count"},
	{"ingest.unconfigured_share", "share"},
	{"trace.coverage", "share"},
	{"trace.overhead", "share"},
}

// perLayer derives the per-layer metrics from the untraced phase ph and
// the traced phase tph: span aggregates for the client, transport and
// server seams, replays (tph.layer) for the layers below the handler.
func perLayer(ph, tph *phase) map[string]float64 {
	out := make(map[string]float64, len(layerMetrics))
	for k, v := range tph.layer {
		out[k] = v
	}
	out["runtime.alloc_kb_per_op"] = ratio(float64(ph.allocBytes)/1024, float64(ph.loopOps))
	out["runtime.gc_cycles"] = ph.gcCycles
	out["poll.repeat_final_share"] = ratio(float64(ph.repeatFinal), float64(ph.polls))
	out["ingest.samples_per_run"] = ratio(float64(ph.samples), float64(ph.runs))
	out["ingest.unconfigured_share"] = ratio(float64(ph.unconfiguredSamples), float64(ph.samples))
	// Tracing overhead: the traced phase's primary call against the
	// untraced one, both timed by the caller.
	untraced := ph.primary.meanMS()
	out["trace.overhead"] = ratio(tph.primary.meanMS()-untraced, untraced)

	// below is the replayed per-call time under the handler of the
	// primary call; learn has no handler and sets coverage itself.
	tc := tph.tc
	below, kind := 0.0, callKind(-1)
	switch {
	case out["monitor.ingest_runs_us"] > 0:
		kind, below = callIngestRuns, out["wire.decode_us"]+out["monitor.ingest_runs_us"]
	case out["monitor.result_us"] > 0:
		kind, below = callResult, out["monitor.result_us"]
	}
	if tc == nil || kind < 0 {
		return out
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	agg := tc.calls[kind]
	n := float64(max(agg.n, 1))
	callUS := usOf(agg.call) / n
	tripUS := usOf(agg.roundTrip) / n
	handlerUS := usOf(agg.handler) / n
	out["client.self_us"] = callUS - tripUS
	out["transport.us"] = tripUS - handlerUS
	out["transport.req_bytes"] = float64(agg.reqBytes) / n
	out["transport.resp_bytes"] = float64(agg.respBytes) / n
	for route, ra := range tc.routes {
		out["server.handler_us."+route] = usOf(ra.dur) / float64(max(ra.n, 1))
	}
	var non2xx int64
	for _, c := range tc.non2xx {
		non2xx += c
	}
	out["server.non2xx"] = float64(non2xx)
	// Coverage: the share of the traced call the named layers account
	// for — client and transport spans plus the replayed layers under
	// the handler. What the handler span holds beyond the replays is the
	// server's own unattributed work (routing, admission, response
	// encoding); a share above 1 means the replays ran slower than the
	// handler they stand in for.
	out["trace.coverage"] = ratio(callUS-handlerUS+below, callUS)
	return out
}

// printLayers prints the per-layer table.
func printLayers(layer map[string]float64) {
	for _, m := range layerMetrics {
		fmt.Printf("layer %-28s %14.6g %s\n", m.name, layer[m.name], m.unit)
	}
}
