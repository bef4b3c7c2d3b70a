// Command efd trains, inspects and applies Execution Fingerprint
// Dictionaries.
//
// Subcommands:
//
//	efd learn -data dataset.csv -out dict.json [-metric M] [-depth D]
//	    Learn a dictionary from a labelled dataset. Without -depth the
//	    rounding depth is chosen by cross-validation (the paper's
//	    procedure).
//
//	efd recognize -data dataset.csv -dict dict.json [-report]
//	    Recognize every execution of the dataset and print predictions
//	    (and optionally a classification report against the labels).
//
//	efd dump -dict dict.json
//	    Print the dictionary in the layout of Table 4 of the paper.
//
//	efd predict -dict dict.json -app ft
//	    Dictionary-in-reverse (§6): print the expected resource usage
//	    of a known application.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "learn":
		err = cmdLearn(os.Args[2:])
	case "recognize":
		err = cmdRecognize(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "efd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: efd {learn|recognize|dump|predict} [flags]")
	os.Exit(2)
}

func loadDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.LoadCSV(f)
}

func loadDict(path string) (*core.Dictionary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

func cmdLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	data := fs.String("data", "", "labelled dataset CSV (from gendataset)")
	out := fs.String("out", "dict.json", "output dictionary path")
	metric := fs.String("metric", core.DefaultFitConfig().Metrics[0], "system metric to fingerprint")
	window := fs.String("window", telemetry.PaperWindow.String(), "fingerprint interval, e.g. [60:120]")
	depth := fs.Int("depth", 0, "fixed rounding depth (0 = choose by cross-validation)")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("learn: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	w, err := telemetry.ParseWindow(*window)
	if err != nil {
		return err
	}
	var d *core.Dictionary
	if *depth > 0 {
		d, err = core.Build(ds, core.Config{
			Metrics: []string{*metric}, Windows: []telemetry.Window{w}, Depth: *depth,
		})
		if err != nil {
			return err
		}
		fmt.Printf("built dictionary at fixed depth %d\n", *depth)
	} else {
		cfg := core.DefaultFitConfig()
		cfg.Metrics = []string{*metric}
		cfg.Windows = []telemetry.Window{w}
		var rep core.FitReport
		d, rep, err = core.Fit(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("cross-validation selected depth %d (scores: %v)\n",
			rep.BestDepth, rep.DepthScores)
	}
	st := d.Stats()
	fmt.Printf("dictionary: %d keys (%d exclusive, %d collisions) over %d labels\n",
		st.Keys, st.Exclusive, st.Collisions, st.Labels)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("saved to %s\n", *out)
	return nil
}

func cmdRecognize(args []string) error {
	fs := flag.NewFlagSet("recognize", flag.ExitOnError)
	data := fs.String("data", "", "dataset CSV to recognize")
	dict := fs.String("dict", "dict.json", "dictionary path")
	report := fs.Bool("report", false, "print a classification report against the labels")
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("recognize: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	d, err := loadDict(*dict)
	if err != nil {
		return err
	}
	var pairs []eval.Pair
	for _, e := range ds.Executions {
		res := d.Recognize(core.Source(e))
		fmt.Printf("exec %4d  truth=%-14s pred=%-14s votes=%v\n",
			e.ID, e.Label, res.Top(), res.Votes())
		pairs = append(pairs, eval.Pair{Truth: e.Label.App, Pred: res.Top()})
	}
	if *report {
		r, err := eval.Evaluate(pairs)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(r.String())
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	dict := fs.String("dict", "dict.json", "dictionary path")
	fs.Parse(args)
	d, err := loadDict(*dict)
	if err != nil {
		return err
	}
	return d.Dump(os.Stdout)
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	dict := fs.String("dict", "dict.json", "dictionary path")
	app := fs.String("app", "", "application name to predict usage for")
	fs.Parse(args)
	if *app == "" {
		return fmt.Errorf("predict: -app is required")
	}
	d, err := loadDict(*dict)
	if err != nil {
		return err
	}
	entries := d.PredictUsage(*app)
	if len(entries) == 0 {
		return fmt.Errorf("application %q is not in the dictionary", *app)
	}
	fmt.Printf("expected resource usage of %s (%d stored fingerprints):\n", *app, len(entries))
	for _, e := range entries {
		fmt.Printf("  %s %s on node %d: %s\n", e.Key.Metric, e.Key.Window, e.Key.Node, e.Key.Key)
	}
	return nil
}
