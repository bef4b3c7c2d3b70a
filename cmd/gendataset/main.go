// Command gendataset generates the synthetic telemetry dataset — the
// stand-in for the Taxonomist artifact of the paper — and writes it as
// a summarized CSV consumable by cmd/efd and cmd/experiments.
//
// Usage:
//
//	gendataset -out dataset.csv                    # Table 2 primary grid
//	gendataset -nodes 32 -repeats 6 -out large.csv # secondary grid
//	gendataset -apps ft,mg,sp -repeats 5 -metrics nr_mapped_vmstat -out small.csv
//	gendataset -raw ft_X.csv                       # one execution's raw 1 Hz telemetry
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/ldms"
	"repro/internal/noise"
	"repro/internal/telemetry"
)

func main() {
	var (
		out     = flag.String("out", "", "output CSV path for the summarized dataset")
		nodes   = flag.Int("nodes", 4, "nodes per execution")
		repeats = flag.Int("repeats", 30, "executions per (application, input) pair")
		seed    = flag.Int64("seed", 1, "generation seed")
		appsCSV = flag.String("apps", "", "comma-separated application subset (default: all 11)")
		metsCSV = flag.String("metrics", "", "comma-separated metric subset (default: full catalog)")
		raw     = flag.String("raw", "", "write one execution's raw telemetry CSV to this path instead")
		rawApp  = flag.String("raw-app", "ft", "application for -raw")
		rawIn   = flag.String("raw-input", "X", "input size for -raw")
		check   = flag.Bool("check", false, "with -raw: read the written CSV back and verify the round-trip sample for sample")
	)
	flag.Parse()

	if *raw != "" {
		if err := writeRaw(*raw, *rawApp, apps.Input(*rawIn), *nodes, *seed, *check); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gendataset: -out or -raw is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := dataset.DefaultGenConfig()
	cfg.Cluster.Nodes = *nodes
	cfg.Repeats = *repeats
	cfg.Seed = *seed
	if *appsCSV != "" {
		cfg.Apps = strings.Split(*appsCSV, ",")
	}
	if *metsCSV != "" {
		cfg.Cluster.Metrics = strings.Split(*metsCSV, ",")
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := ds.SaveCSV(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d executions (%d labels, %d metrics, %d nodes each) to %s\n",
		ds.Len(), len(ds.Labels()), len(ds.Metrics()), *nodes, *out)
}

// writeRaw runs a single execution on the simulated cluster and dumps
// its full 1 Hz telemetry in the per-node CSV layout. With check set,
// it reads the file back through the parallel execution-CSV ingest and
// verifies the round-trip sample for sample.
func writeRaw(path, app string, in apps.Input, nodes int, seed int64, check bool) error {
	spec, ok := apps.Lookup(app)
	if !ok {
		return fmt.Errorf("unknown application %q", app)
	}
	sim, err := cluster.New(cluster.Config{Nodes: nodes, Noise: noise.DefaultProfile()})
	if err != nil {
		return err
	}
	ns, exec, err := sim.Run(spec, in, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ldms.WriteExecutionCSV(f, ns); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote raw telemetry of %s_%s (%v, %d nodes, %d series) to %s\n",
		app, in, exec.Duration().Round(1e9), nodes, ns.NumSeries(), path)
	if check {
		if err := verifyRoundTrip(path, ns); err != nil {
			return err
		}
		fmt.Println("round-trip verified: every sample identical after write -> read")
	}
	return nil
}

// verifyRoundTrip re-reads the written execution CSV and compares every
// sample of every series against the in-memory telemetry.
func verifyRoundTrip(path string, want *telemetry.NodeSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	got, err := ldms.ReadExecutionCSV(f, 0)
	if err != nil {
		return fmt.Errorf("round-trip read: %w", err)
	}
	for _, node := range want.Nodes() {
		for _, m := range want.Metrics() {
			a, b := want.Get(node, m), got.Get(node, m)
			if b == nil {
				return fmt.Errorf("round-trip lost node %d metric %s", node, m)
			}
			if a.Len() != b.Len() {
				return fmt.Errorf("round-trip node %d metric %s: %d samples became %d",
					node, m, a.Len(), b.Len())
			}
			for i := 0; i < a.Len(); i++ {
				if a.At(i) != b.At(i) {
					return fmt.Errorf("round-trip node %d metric %s sample %d: %+v became %+v",
						node, m, i, a.At(i), b.At(i))
				}
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gendataset:", err)
	os.Exit(1)
}
