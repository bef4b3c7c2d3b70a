// Package eval implements the classification metrics the paper takes
// from scikit-learn: precision, recall, F-score (macro and weighted
// averaging) and classification reports.
package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Pair is one (ground truth, prediction) outcome.
type Pair struct {
	Truth string
	Pred  string
}

// ClassStats holds per-class counts and derived scores.
type ClassStats struct {
	Class     string
	TP        int
	FP        int
	FN        int
	Support   int // number of true instances
	Precision float64
	Recall    float64
	F1        float64
}

// Report is a full classification report over a set of outcomes.
type Report struct {
	Classes  []ClassStats
	Accuracy float64
	// MacroF1 is the unweighted mean of per-class F1 — the paper's
	// headline score.
	MacroF1 float64
	// WeightedF1 weights per-class F1 by support.
	WeightedF1 float64
	// MacroPrecision and MacroRecall are unweighted class means.
	MacroPrecision float64
	MacroRecall    float64
	Total          int
}

// Evaluate computes a Report from outcomes. Classes are the union of
// truth and prediction labels; classes that never appear as truth have
// zero support and do not contribute to averaged scores (matching
// scikit-learn's behaviour of averaging over labels present in the
// truth when computing support-weighted scores; for macro averaging we
// follow the paper's setting and average over truth classes only).
func Evaluate(pairs []Pair) (Report, error) {
	if len(pairs) == 0 {
		return Report{}, errors.New("eval: no outcomes to evaluate")
	}
	type counts struct{ tp, fp, fn, support int }
	byClass := make(map[string]*counts)
	get := func(c string) *counts {
		if v, ok := byClass[c]; ok {
			return v
		}
		v := &counts{}
		byClass[c] = v
		return v
	}
	correct := 0
	for _, p := range pairs {
		t := get(p.Truth)
		t.support++
		if p.Truth == p.Pred {
			t.tp++
			correct++
		} else {
			t.fn++
			get(p.Pred).fp++
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	var r Report
	r.Total = len(pairs)
	r.Accuracy = float64(correct) / float64(len(pairs))
	truthClasses := 0
	var wSum float64
	for _, c := range classes {
		v := byClass[c]
		cs := ClassStats{Class: c, TP: v.tp, FP: v.fp, FN: v.fn, Support: v.support}
		cs.Precision, cs.Recall, cs.F1 = ClassScores(v.tp, v.fp, v.fn)
		r.Classes = append(r.Classes, cs)
		if cs.Support > 0 {
			truthClasses++
			r.MacroF1 += cs.F1
			r.MacroPrecision += cs.Precision
			r.MacroRecall += cs.Recall
			wSum += cs.F1 * float64(cs.Support)
		}
	}
	if truthClasses > 0 {
		r.MacroF1 /= float64(truthClasses)
		r.MacroPrecision /= float64(truthClasses)
		r.MacroRecall /= float64(truthClasses)
	}
	r.WeightedF1 = wSum / float64(len(pairs))
	return r, nil
}

// ClassScores returns one class's precision, recall and F1 from its
// true positives, false positives and false negatives; a ratio with a
// zero denominator is 0. Evaluate scores every class through it, so a
// caller that tallies the counts itself and averages the F1 of the
// classes with support, in ascending name order, gets Evaluate's
// MacroF1 bit for bit.
func ClassScores(tp, fp, fn int) (precision, recall, f1 float64) {
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// F1Macro is a convenience wrapper returning only the macro F1.
func F1Macro(pairs []Pair) float64 {
	r, err := Evaluate(pairs)
	if err != nil {
		return 0
	}
	return r.MacroF1
}

// String renders the report in scikit-learn's classification_report
// layout.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %9s %9s %9s\n", "", "precision", "recall", "f1-score", "support")
	for _, c := range r.Classes {
		if c.Support == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-24s %9.3f %9.3f %9.3f %9d\n",
			c.Class, c.Precision, c.Recall, c.F1, c.Support)
	}
	fmt.Fprintf(&b, "\n%-24s %9s %9s %9.3f %9d\n", "accuracy", "", "", r.Accuracy, r.Total)
	fmt.Fprintf(&b, "%-24s %9.3f %9.3f %9.3f %9d\n",
		"macro avg", r.MacroPrecision, r.MacroRecall, r.MacroF1, r.Total)
	fmt.Fprintf(&b, "%-24s %9s %9s %9.3f %9d\n", "weighted avg", "", "", r.WeightedF1, r.Total)
	return b.String()
}
