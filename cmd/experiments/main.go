// Command experiments regenerates every table and figure of the
// paper's evaluation, plus the ablations listed under -ablation below.
//
// Usage:
//
//	experiments -table 1            # rounding-depth mechanism
//	experiments -table 2            # dataset composition
//	experiments -table 3            # per-metric F-scores
//	experiments -table 4            # example dictionary
//	experiments -figure 2           # EFD vs Taxonomist, 5 protocols
//	experiments -figure 2 -taxonomist=false   # EFD only (much faster)
//	experiments -ablation depth|interval|voting|combo|growth|latency
//	experiments -all                # everything above
//	experiments -quick              # smaller dataset and forest
//
// The dataset is regenerated from the given seed on every run; with the
// same seed all numbers are bit-reproducible.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/taxonomist"
)

func main() {
	var (
		table      = flag.Int("table", 0, "reproduce a paper table (1-4)")
		figure     = flag.Int("figure", 0, "reproduce a paper figure (1-2)")
		ablation   = flag.String("ablation", "", "run an ablation: "+strings.Join(ablations, "|"))
		all        = flag.Bool("all", false, "reproduce everything")
		quick      = flag.Bool("quick", false, "smaller dataset and forest for a fast pass")
		taxo       = flag.Bool("taxonomist", true, "include the Taxonomist baseline in Figure 2")
		seed       = flag.Int64("seed", 1, "dataset generation seed")
		table3Rows = flag.Int("table3-rows", 13, "rows to print for Table 3 (0 = all)")
	)
	flag.Parse()

	if err := checkRequest(*table, *figure, *ablation); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	if !*all && *table == 0 && *figure == 0 && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *table == 1 || *all {
		experiments.RenderTable1(os.Stdout)
		fmt.Println()
		if !*all && *table == 1 {
			return
		}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating dataset (seed %d)...\n", *seed)
	ds := generate(*quick, *seed)
	fmt.Fprintf(os.Stderr, "generated %d executions in %v\n", ds.Len(), time.Since(start).Round(time.Millisecond))

	h := experiments.NewHarness(ds)
	if *quick {
		h.Folds = 3
	}

	if *table == 2 || *all {
		experiments.RenderTable2(os.Stdout, ds)
		fmt.Println()
	}
	if *figure == 1 || *all {
		renderFigure1(ds)
	}
	if *figure == 2 || *all {
		runFigure2(h, *taxo, *quick)
	}
	if *table == 3 || *all {
		runTable3(h, *table3Rows)
	}
	if *table == 4 || *all {
		runTable4(ds)
	}
	if *ablation != "" {
		runAblation(h, *ablation)
	} else if *all {
		for _, a := range ablations {
			runAblation(h, a)
		}
	}
	fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
}

// ablations are the -ablation names, in the order -all runs them.
var ablations = []string{"depth", "interval", "voting", "combo", "growth", "latency"}

// checkRequest rejects a -table, -figure or -ablation value the command
// cannot render, before it spends seconds generating the dataset. 0 and
// "" request nothing.
func checkRequest(table, figure int, ablation string) error {
	if table < 0 || table > 4 {
		return fmt.Errorf("no table %d: the tables are 1-4", table)
	}
	if figure < 0 || figure > 2 {
		return fmt.Errorf("no figure %d: the figures are 1-2", figure)
	}
	if ablation != "" && !slices.Contains(ablations, ablation) {
		return fmt.Errorf("no ablation %q: the ablations are %s", ablation, strings.Join(ablations, "|"))
	}
	return nil
}

func generate(quick bool, seed int64) *dataset.Dataset {
	cfg := dataset.DefaultGenConfig()
	cfg.Seed = seed
	if quick {
		cfg.Repeats = 10
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	return ds
}

// renderFigure1 walks the quickstart pipeline, which is what Figure 1
// of the paper depicts: learn → prune → lookup.
func renderFigure1(ds *dataset.Dataset) {
	fmt.Println("Figure 1: the EFD mechanism (learn -> prune -> lookup)")
	d, err := experiments.ExampleDictionary(ds)
	if err != nil {
		fatal(err)
	}
	st := d.Stats()
	fmt.Printf("  (1) learned %d labels into %d pruned keys (depth %d)\n",
		st.Labels, st.Keys, st.Depth)
	fmt.Printf("  (2) %d keys are application-exclusive, %d are collisions\n",
		st.Exclusive, st.Collisions)
	fmt.Println("  (3) lookups return the most-matched application (see -table 4)")
	fmt.Println()
}

func runFigure2(h *experiments.Harness, withTaxo, quick bool) {
	if withTaxo {
		forest := taxonomist.DefaultForestConfig()
		if quick {
			forest.Trees = 25
			forest.Tree.MinLeaf = 2
		} else {
			forest.Trees = 50
		}
		h.Taxo = &experiments.TaxoConfig{Forest: forest}
	}
	scores, err := h.RunAll()
	if err != nil {
		fatal(err)
	}
	experiments.RenderFigure2(os.Stdout, scores)
	for _, s := range scores {
		experiments.RenderPerDimension(os.Stdout, s)
	}
	fmt.Println()
	h.Taxo = nil
}

func runTable3(h *experiments.Harness, rows int) {
	sweep, err := h.MetricSweep(nil)
	if err != nil {
		fatal(err)
	}
	experiments.RenderTable3(os.Stdout, sweep, rows)
	fmt.Println()
}

func runTable4(ds *dataset.Dataset) {
	fmt.Println("Table 4: Example Execution Fingerprint Dictionary (depth 2)")
	d, err := experiments.ExampleDictionary(ds)
	if err != nil {
		fatal(err)
	}
	if err := d.Dump(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func runAblation(h *experiments.Harness, name string) {
	switch name {
	case "depth":
		scores, err := h.DepthAblation(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: rounding depth (normal fold, fixed depth)")
		for d := 1; d <= 6; d++ {
			fmt.Printf("  depth %d: F = %.3f\n", d, scores[d])
		}
	case "interval":
		scores, err := h.IntervalAblation(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: fingerprint interval (normal fold)")
		printSorted(scores)
	case "voting":
		all, single, err := h.VotingAblation()
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: per-node voting (normal fold)")
		fmt.Printf("  all nodes vote: F = %.3f\n", all)
		fmt.Printf("  node 0 only:    F = %.3f\n", single)
	case "combo":
		rows, err := h.ComboAblation(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: metric combinations (voting vs joint keys)")
		for _, r := range rows {
			fmt.Printf("  %-28s normal=%.3f hardUnknown=%.3f\n",
				r.Name, r.NormalFold, r.HardUnknown)
		}
	case "growth":
		growth, err := h.DictionaryGrowth(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: dictionary size vs rounding depth (pruning)")
		for d := 1; d <= 6; d++ {
			g := growth[d]
			fmt.Printf("  depth %d: %5d keys (%d exclusive, %d collisions)\n",
				d, g.Keys, g.Exclusive, g.Collisions)
		}
	case "latency":
		scores, err := h.LatencyAblation()
		if err != nil {
			fatal(err)
		}
		fmt.Println("Ablation: answer latency (window position, normal fold)")
		printSorted(scores)
	default:
		fatal(fmt.Errorf("unknown ablation %q", name))
	}
	fmt.Println()
}

func printSorted(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-12s F = %.3f\n", k, m[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
