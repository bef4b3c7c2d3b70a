package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// RenderTable1 prints the rounding-depth mechanism on the paper's
// example values (Table 1).
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Rounding Depth for Measurements")
	fmt.Fprintf(w, "%10s |", "Original")
	for d := 5; d >= 1; d-- {
		fmt.Fprintf(w, "%10d", d)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 62))
	for _, v := range []float64{1358.0, 5.28, 0.038} {
		fmt.Fprintf(w, "%10s |", stats.FormatKey(v))
		for d := 5; d >= 1; d-- {
			if d >= stats.SignificantDigits(v) {
				if d > stats.SignificantDigits(v) {
					fmt.Fprintf(w, "%10s", "-")
					continue
				}
			}
			fmt.Fprintf(w, "%10s", stats.FormatKey(stats.RoundDepth(v, d)))
		}
		fmt.Fprintln(w)
	}
}

// RenderTable2 prints the dataset composition (Table 2), one line per
// node count in ascending order.
func RenderTable2(w io.Writer, ds *dataset.Dataset) {
	fmt.Fprintln(w, "Table 2: Dataset used for Evaluation")
	names := ds.Apps()
	var inputs []string
	for _, in := range ds.Inputs() {
		inputs = append(inputs, string(in))
	}
	nodeCounts := make(map[int]int) // nodes -> executions
	for _, e := range ds.Executions {
		nodeCounts[e.NumNodes]++
	}
	fmt.Fprintf(w, "  Applications:        %s\n", strings.Join(names, ", "))
	fmt.Fprintf(w, "  Input sizes:         %s (L only for a subset)\n", strings.Join(inputs, ", "))
	for _, nodes := range slices.Sorted(maps.Keys(nodeCounts)) {
		fmt.Fprintf(w, "  Node count %2d:       %d executions\n", nodes, nodeCounts[nodes])
	}
	fmt.Fprintf(w, "  Label combinations:  %d\n", len(ds.Labels()))
	fmt.Fprintf(w, "  Total executions:    %d\n", ds.Len())
	fmt.Fprintf(w, "  System metrics:      %d\n", len(ds.Metrics()))
}

// RenderFigure2 prints the protocol comparison as an ASCII bar chart
// (Figure 2). Scores missing a Taxonomist value render a single bar,
// matching the paper's note that the hard experiments were not
// conducted in the Taxonomist work.
func RenderFigure2(w io.Writer, scores []Score) {
	fmt.Fprintln(w, "Figure 2: EFD vs Taxonomist (macro F-score)")
	fmt.Fprintln(w, "  EFD: 1 metric (nr_mapped_vmstat), first 2 minutes")
	fmt.Fprintln(w, "  Taxonomist: all metrics, entire execution window")
	fmt.Fprintln(w)
	const width = 50
	bar := func(v float64) string {
		n := int(v*width + 0.5)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		return strings.Repeat("#", n) + strings.Repeat(".", width-n)
	}
	for _, s := range scores {
		fmt.Fprintf(w, "%-14s EFD        |%s| %.3f\n", s.Protocol, bar(s.EFD), s.EFD)
		if s.HasTaxonomist {
			fmt.Fprintf(w, "%-14s Taxonomist |%s| %.3f\n", "", bar(s.Taxonomist), s.Taxonomist)
		} else {
			fmt.Fprintf(w, "%-14s Taxonomist |%s| (not conducted)\n", "", strings.Repeat(" ", width))
		}
		fmt.Fprintln(w)
	}
}

// RenderTable3 prints the per-metric F-score table (Table 3), top
// results first. limit <= 0 prints every row.
func RenderTable3(w io.Writer, rows []MetricScore, limit int) {
	fmt.Fprintln(w, "Table 3: Individual System Metric Results (normal fold)")
	fmt.Fprintf(w, "%-34s %8s %6s\n", "System Metric Name", "F-score", "depth")
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, r := range rows[:n] {
		fmt.Fprintf(w, "%-34s %8.2f %6d\n", r.Metric, r.FScore, r.Depth)
	}
	if n < len(rows) {
		fmt.Fprintf(w, "%-34s %8s\n", "...", "...")
	}
}

// RenderPerDimension prints a protocol's per-removed-dimension
// breakdown.
func RenderPerDimension(w io.Writer, s Score) {
	if len(s.PerDimension) == 0 {
		return
	}
	fmt.Fprintf(w, "%s, by removed dimension:\n", s.Protocol)
	for _, k := range sortedKeys(s.PerDimension) {
		fmt.Fprintf(w, "  %-12s %.3f\n", k, s.PerDimension[k])
	}
}
