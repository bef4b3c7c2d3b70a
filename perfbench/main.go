// Command perfbench is the repository benchmark: it runs one named
// workload against the monitoring service assembled in-process the way
// cmd/efdd assembles it, checks every answer, and prints its metrics.
//
//	go -C perfbench build -o ../.bench_build/perfbench .
//	.bench_build/perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md next to this file for the reasons):
//
//	ingest  binary Client.IngestRuns of live jobs
//	poll    Client.Result polls of 1024 jobs beside JSON row ingest
//	learn   experiments.Harness.NormalFold back to back
//
// With --trace 0 the timed phase runs untraced and the last line of
// standard output is the end-to-end result; with --trace 1 an untraced
// phase is followed by a traced one, each half as long, plus layer
// replays, and the last line carries the per-layer metrics. The lines
// before it are a readable report. Set-up is repeated setupRuns times
// and its median reported, so work moved into set-up shows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// scratchRoot, under the checkout the benchmark runs from, holds each
// run's stores (removed at exit) and the traced runs' span files.
const scratchRoot = ".bench_build/run"

// setupRuns is how many times a run sets the workload up; the median
// is setup_s.
const setupRuns = 9

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named benchmark workload. An instance is set up
// once, runs at most one timed phase, and is closed.
type workload interface {
	// setup builds inputs from seed and starts the system with its store
	// in dir. A non-nil tracer selects the traced assembly and makes
	// the instance record its engine-level operations for replay.
	setup(seed int64, dir string, tc *tracer) error
	// run drives the timed phase for d, then quiesces and checks every
	// live answer.
	run(d time.Duration) (*phase, error)
	// layers replays the traced phase's recorded inputs through the
	// layers below the handler and fills ph.layer.
	layers(ph *phase, scratch string) error
	close() error
}

var workloads = map[string]func() workload{
	"ingest": func() workload { return &ingestWorkload{} },
	"poll":   func() workload { return &pollWorkload{} },
	"learn":  func() workload { return &learnWorkload{} },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "ingest", "workload: ingest, poll or learn")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	scratch := filepath.Join(scratchRoot, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	res, err := runWorkload(mk, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload sets the workload up setupRuns times, runs the timed
// phase(s), and assembles the result. The untraced phase runs on the
// last untraced set-up; a traced run sets up its traced instance only
// after that phase, so the two never share the process.
func runWorkload(mk func() workload, name string, seed int64, d time.Duration, traced bool, scratch string) (*result, error) {
	var setups []float64
	setup := func(tc *tracer) (workload, error) {
		w := mk()
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed, filepath.Join(scratch, fmt.Sprintf("store-%d", len(setups))), tc); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return w, nil
	}
	untraced := setupRuns
	if traced {
		untraced--
		// Both phases share the run's length, so a traced run takes no
		// longer than an untraced one.
		d /= 2
	}
	var plain workload
	for i := 0; i < untraced; i++ {
		w, err := setup(nil)
		if err != nil {
			return nil, err
		}
		if i < untraced-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		} else {
			plain = w
		}
	}
	ph, err := plain.run(d)
	if cerr := plain.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: ph.correct(), Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if !traced {
		ph.setupS, ph.setups = medianFloat(setups), setups
		printHost(name, seed, d, traced)
		ph.printE2E(name)
		for k, m := range ph.e2eMetrics() {
			res.Metrics[k] = m
		}
		return res, nil
	}

	tc := newTracer()
	withTrace, err := setup(tc)
	if err != nil {
		return nil, err
	}
	defer withTrace.close()
	ph.setupS, ph.setups = medianFloat(setups), setups
	printHost(name, seed, d, traced)
	ph.printE2E(name)
	tph, err := withTrace.run(d)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	tph.tc = tc
	if err := withTrace.layers(tph, scratch); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	layer := perLayer(ph, tph)
	printLayers(layer)
	if len(tc.non2xx) > 0 {
		fmt.Printf("server non-2xx by status: %v\n", tc.non2xx)
	}
	if len(tc.sample) > 0 {
		path := filepath.Join(filepath.Dir(scratch), fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tc.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d requests written to %s\n", len(tc.sample), path)
	}
	res.Correct = res.Correct && tph.correct()
	res.Attempted += tph.attempted
	res.Failed += tph.failed
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{Value: layer[lm.name], Unit: lm.unit}
	}
	return res, nil
}

// printHost records the facts every number depends on.
func printHost(name string, seed int64, d time.Duration, traced bool) {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s rev=%s store_fs=%s fsync=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, storeFS(),
		"off-in-timed-phases(StoreOptions.NoSync),on-in-tsdb-replay")
	fmt.Printf("run: workload=%s seed=%d phase_s=%.1f trace=%v setups=%d\n", name, seed, d.Seconds(), traced, setupRuns)
}

// storeFS names the filesystem under the working directory, where the
// stores live, from /proc/self/mounts (longest matching mount point).
func storeFS() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (wd == mp || strings.HasPrefix(wd, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
