package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// GenConfig describes a synthetic dataset to generate.
type GenConfig struct {
	// Cluster configures the simulated system (nodes, noise, metric
	// selection).
	Cluster cluster.Config
	// Repeats is the number of executions per (application, input)
	// pair. Table 2's primary grid uses 30 repeats on 4 nodes.
	Repeats int
	// Seed makes generation reproducible.
	Seed int64
	// Windows are the intervals to summarize; nil uses
	// DefaultWindows().
	Windows []telemetry.Window
	// Apps restricts generation to the named applications; nil
	// generates all eleven.
	Apps []string
	// Parallel generates executions concurrently on the internal/par
	// pool, on GOMAXPROCS workers; false generates them one after
	// another on the calling goroutine.
	Parallel bool
}

// DefaultGenConfig is the paper's primary grid: all applications, 4
// nodes, 30 repeats, default noise.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Cluster:  cluster.DefaultConfig(),
		Repeats:  30,
		Seed:     1,
		Parallel: true,
	}
}

// Generate builds the dataset described by cfg. Every execution draws
// its randomness from an independent seed derived from cfg.Seed, so the
// result is identical whether generation runs sequentially or in
// parallel.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.Repeats <= 0 {
		return nil, fmt.Errorf("dataset: repeats must be positive, got %d", cfg.Repeats)
	}
	sim, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	windows := cfg.Windows
	if windows == nil {
		windows = DefaultWindows()
	}
	specs := apps.Catalog()
	if cfg.Apps != nil {
		var sel []apps.Spec
		for _, name := range cfg.Apps {
			s, ok := apps.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("dataset: unknown application %q", name)
			}
			sel = append(sel, s)
		}
		specs = sel
	}

	type task struct {
		spec apps.Spec
		in   apps.Input
	}
	var tasks []task
	for _, spec := range specs {
		for _, in := range spec.Inputs {
			for r := 0; r < cfg.Repeats; r++ {
				tasks = append(tasks, task{spec: spec, in: in})
			}
		}
	}
	workers := 1
	if cfg.Parallel {
		workers = 0
	}
	execs, err := par.Map(len(tasks), workers, func(id int) (*Execution, error) {
		t := tasks[id]
		// Derive a stable per-execution seed from the grid coordinates,
		// independent of iteration order.
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(id)*7919 + 17))
		ns, _, err := sim.Run(t.spec, t.in, rng)
		if err != nil {
			return nil, err
		}
		return Summarize(id, apps.Label{App: t.spec.Name, Input: t.in}, ns, windows), nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Windows: windows, Executions: execs}, nil
}
