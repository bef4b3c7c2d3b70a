// Package cluster simulates the HPC system the telemetry comes from: a
// set of nodes on which application executions run while an LDMS-style
// monitor samples every catalog metric once per second on every node.
//
// The simulator is the stand-in for the Volta cluster behind the
// Taxonomist dataset. It owns the composition of ideal application
// behaviour (package apps) with system perturbations (package noise) and
// produces per-execution telemetry (package telemetry).
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/noise"
	"repro/internal/telemetry"
)

// Config describes the simulated system.
type Config struct {
	// Nodes is the number of nodes allocated to each execution.
	Nodes int
	// Period is the monitoring sampling period (default 1 s).
	Period time.Duration
	// Noise is the perturbation environment of the system.
	Noise noise.Profile
	// Metrics restricts collection to the named metrics; nil collects
	// the full catalog. Restricting collection makes large parameter
	// sweeps dramatically cheaper.
	Metrics []string
}

// DefaultConfig returns the 4-node, 1 Hz, default-noise configuration
// matching the primary grid of Table 2.
func DefaultConfig() Config {
	return Config{
		Nodes:  4,
		Period: telemetry.DefaultPeriod,
		Noise:  noise.DefaultProfile(),
	}
}

// Simulator runs application executions on the simulated system.
type Simulator struct {
	cfg           Config
	metricIndexes []int
}

// New returns a simulator for the configuration. It validates the node
// count, period and metric names.
func New(cfg Config) (*Simulator, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("cluster: node count must be positive")
	}
	if cfg.Period <= 0 {
		cfg.Period = telemetry.DefaultPeriod
	}
	s := &Simulator{cfg: cfg}
	if cfg.Metrics == nil {
		for i := range apps.Metrics() {
			s.metricIndexes = append(s.metricIndexes, i)
		}
		return s, nil
	}
	for _, name := range cfg.Metrics {
		found := false
		for i, m := range apps.Metrics() {
			if m.Name == name {
				s.metricIndexes = append(s.metricIndexes, i)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: unknown metric %q", name)
		}
	}
	if len(s.metricIndexes) == 0 {
		return nil, errors.New("cluster: empty metric selection")
	}
	return s, nil
}

// Run instantiates one execution of the application with the given
// input and collects its telemetry. All randomness is drawn from rng.
func (s *Simulator) Run(spec apps.Spec, in apps.Input, rng *rand.Rand) (*telemetry.NodeSet, *apps.Execution, error) {
	exec, err := spec.Instantiate(in, s.cfg.Nodes, rng)
	if err != nil {
		return nil, nil, err
	}
	ns := s.Collect(exec, rng)
	return ns, exec, nil
}

// Collect samples an already-instantiated execution through the noise
// environment and returns its telemetry.
func (s *Simulator) Collect(exec *apps.Execution, rng *rand.Rand) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	nSamples := int(exec.Duration()/s.cfg.Period) + 1
	// The initialization transient's height varies run to run: some
	// executions start more turbulently than others. This is the main
	// reason early windows make poor fingerprints (interval ablation).
	ampScale := 0.7 + 0.6*rng.Float64()
	mets := apps.Metrics()
	for _, mi := range s.metricIndexes {
		m := mets[mi]
		prof := s.cfg.Noise
		prof.Jitter += m.JitterRel
		prof.InitAmplitude *= ampScale
		if m.Kind == apps.KindConstant {
			// Node properties are immune to application noise.
			prof = noise.Profile{Jitter: prof.Jitter}
		}
		for node := 0; node < exec.NumNodes; node++ {
			chain := prof.NewChain()
			series := telemetry.NewSeries(m.Name, node, nSamples)
			for i := 0; i < nSamples; i++ {
				t := time.Duration(i) * s.cfg.Period
				v := chain.Perturb(rng, t, exec.Ideal(mi, node, t))
				if v < 0 {
					v = 0
				}
				series.Append(t, v)
			}
			ns.Put(series)
		}
	}
	return ns
}
