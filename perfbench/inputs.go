package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

const (
	// nodes is the node count of every simulated job (the paper's
	// primary grid).
	nodes = 4
	// lifeTicks is how many one-second ticks a job streams before its
	// final poll: past the 120 s fingerprint horizon with margin.
	lifeTicks = 150
	// gridRepeats sizes the dictionary grid: executions per
	// (application, input) pair.
	gridRepeats = 8
	// poolRepeats is the number of simulated executions per
	// (application, input) pair in the telemetry pool jobs replay.
	poolRepeats = 2
)

// forwardedMetrics are the metrics every node forwards each tick. Only
// the headline metric is in the dictionary; the rest are forwarded
// blindly, as an LDMS aggregator would.
var forwardedMetrics = [...]string{
	apps.HeadlineMetric,
	"nr_active_anon_vmstat",
	"Committed_AS_meminfo",
	"AMO_PKTS_metric_set_nic",
}

// samplesPerTick is one job's telemetry per one-second tick.
const samplesPerTick = nodes * len(forwardedMetrics)

// gridOffs[t] is the offset of tick t; every execution samples on the
// 1 Hz grid, so one table serves all columns.
var gridOffs = func() []time.Duration {
	out := make([]time.Duration, lifeTicks)
	for t := range out {
		out[t] = time.Duration(t) * telemetry.DefaultPeriod
	}
	return out
}()

// execution is one pooled telemetry replay source.
type execution struct {
	label apps.Label
	// ticks is how many ticks a job replaying it streams: lifeTicks, or
	// fewer for an execution that ends sooner (still past the horizon).
	ticks int
	// vals[node][metric][tick] is the forwarded value.
	vals [nodes][len(forwardedMetrics)][]float64
}

// paperGrid generates the dictionary grid: all eleven applications on
// 4 nodes, headline metric only.
func paperGrid(seed int64) (*dataset.Dataset, error) {
	cfg := dataset.DefaultGenConfig()
	cfg.Cluster.Metrics = []string{apps.HeadlineMetric}
	cfg.Repeats = gridRepeats
	cfg.Seed = seed
	return dataset.Generate(cfg)
}

// fitConfig is the paper's headline training configuration, seeded.
func fitConfig(seed int64) core.FitConfig {
	cfg := core.DefaultFitConfig()
	cfg.Seed = seed
	return cfg
}

// simulatePool runs poolRepeats seeded executions of every
// (application, input) pair and keeps their first lifeTicks ticks.
func simulatePool(seed int64) ([]*execution, error) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Metrics = forwardedMetrics[:]
	sim, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var pool []*execution
	for _, spec := range apps.Catalog() {
		for _, in := range spec.Inputs {
			for r := 0; r < poolRepeats; r++ {
				ns, _, err := sim.Run(spec, in, rand.New(rand.NewSource(rng.Int63())))
				if err != nil {
					return nil, err
				}
				ex := &execution{label: apps.Label{App: spec.Name, Input: in}, ticks: lifeTicks}
				for n := 0; n < nodes; n++ {
					for m, metric := range forwardedMetrics {
						s := ns.Get(n, metric)
						if s == nil {
							return nil, fmt.Errorf("pool: %s has no %s on node %d", ex.label, metric, n)
						}
						ex.ticks = min(ex.ticks, s.Len())
						ex.vals[n][m] = s.Values()
					}
				}
				if gridOffs[ex.ticks-1] < telemetry.PaperWindow.End {
					return nil, fmt.Errorf("pool: %s ends at %d ticks, before the fingerprint horizon", ex.label, ex.ticks)
				}
				pool = append(pool, ex)
			}
		}
	}
	return pool, nil
}

// appendRuns appends the runs of ticks [lo, hi) of ex, one run per
// (node, metric). With hi = lo+1 these are the one-sample runs of a
// live tick.
func (ex *execution) appendRuns(dst []monitor.Run, lo, hi int) []monitor.Run {
	for n := 0; n < nodes; n++ {
		for m, metric := range forwardedMetrics {
			dst = append(dst, monitor.Run{Metric: metric, Node: n, Offsets: gridOffs[lo:hi], Values: ex.vals[n][m][lo:hi]})
		}
	}
	return dst
}

// appendRows appends tick t of ex in the JSON row form.
func (ex *execution) appendRows(dst []monitor.Sample, t int) []monitor.Sample {
	for n := 0; n < nodes; n++ {
		for m, metric := range forwardedMetrics {
			dst = append(dst, monitor.Sample{Metric: metric, Node: n, OffsetS: gridOffs[t].Seconds(), Value: ex.vals[n][m][t]})
		}
	}
	return dst
}

// liveJob is the benchmark's view of one registered job: which
// execution it replays and how many ticks the service acknowledged.
type liveJob struct {
	id    string
	ex    *execution
	acked int
}

// referenceState recognizes a job's acknowledged samples with a fresh
// stream under the engine's dictionary read lock — the answer the
// service must give for exactly those samples.
func referenceState(eng *monitor.Engine, j *liveJob) monitor.State {
	var out monitor.State
	eng.Dictionary().Read(func(d *core.Dictionary) {
		s := core.NewStream(d, nodes)
		for n := 0; n < nodes; n++ {
			for m, metric := range forwardedMetrics {
				s.FeedRun(metric, n, gridOffs[:j.acked], j.ex.vals[n][m][:j.acked])
			}
		}
		res := s.Recognize()
		out = monitor.State{
			JobID:      j.id,
			Complete:   s.Complete(),
			Recognized: res.Recognized(),
			Top:        res.Top(),
			Apps:       append([]string(nil), res.Apps...),
			Votes:      res.Votes(),
			Confidence: res.Confidence(),
			Matched:    res.Matched,
			Total:      res.Total,
		}
	})
	return out
}

// expectedTotal is the fingerprint count of a complete job under the
// dictionary's configuration.
func expectedTotal(eng *monitor.Engine) int {
	var n int
	eng.Dictionary().Read(func(d *core.Dictionary) {
		cfg := d.Config()
		n = nodes * len(cfg.Windows)
		if !cfg.Joint {
			n *= len(cfg.Metrics)
		}
	})
	return n
}
