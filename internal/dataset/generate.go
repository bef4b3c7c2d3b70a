package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/apps"
	"repro/internal/cluster"
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
	// Parallel enables concurrent generation across executions.
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
		id   int
		spec apps.Spec
		in   apps.Input
		seed int64
	}
	var tasks []task
	id := 0
	for _, spec := range specs {
		for _, in := range spec.Inputs {
			for r := 0; r < cfg.Repeats; r++ {
				// Derive a stable per-execution seed from the grid
				// coordinates, independent of iteration order.
				seed := cfg.Seed*1_000_003 + int64(id)*7919 + 17
				tasks = append(tasks, task{id: id, spec: spec, in: in, seed: seed})
				id++
			}
		}
	}

	execs := make([]*Execution, len(tasks))
	runOne := func(t task) error {
		rng := rand.New(rand.NewSource(t.seed))
		ns, _, err := sim.Run(t.spec, t.in, rng)
		if err != nil {
			return err
		}
		execs[t.id] = Summarize(t.id, apps.Label{App: t.spec.Name, Input: t.in}, ns, windows)
		return nil
	}

	if !cfg.Parallel {
		for _, t := range tasks {
			if err := runOne(t); err != nil {
				return nil, err
			}
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(tasks) {
			workers = len(tasks)
		}
		ch := make(chan task)
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for t := range ch {
					if err := runOne(t); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}()
		}
		for _, t := range tasks {
			ch <- t
		}
		close(ch)
		wg.Wait()
		select {
		case err := <-errs:
			return nil, err
		default:
		}
	}

	return &Dataset{Windows: windows, Executions: execs}, nil
}
