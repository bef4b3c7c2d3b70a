package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvaluatePerfect(t *testing.T) {
	pairs := []Pair{
		{"a", "a"}, {"a", "a"}, {"b", "b"}, {"c", "c"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 1 || r.MacroF1 != 1 || r.WeightedF1 != 1 {
		t.Errorf("perfect predictions: %+v", r)
	}
	if r.Total != 4 {
		t.Errorf("Total = %d", r.Total)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if _, err := Evaluate(nil); err == nil {
		t.Error("empty outcomes should error")
	}
	if F1Macro(nil) != 0 {
		t.Error("F1Macro of empty should be 0")
	}
}

func TestEvaluateKnownValues(t *testing.T) {
	// Classic 2-class example:
	// truth a: 3 instances, 2 predicted a, 1 predicted b.
	// truth b: 2 instances, both predicted b.
	pairs := []Pair{
		{"a", "a"}, {"a", "a"}, {"a", "b"},
		{"b", "b"}, {"b", "b"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	// a: P=1, R=2/3, F=0.8 ; b: P=2/3, R=1, F=0.8
	for _, c := range r.Classes {
		if math.Abs(c.F1-0.8) > 1e-12 {
			t.Errorf("class %s F1 = %v, want 0.8", c.Class, c.F1)
		}
	}
	if math.Abs(r.MacroF1-0.8) > 1e-12 {
		t.Errorf("MacroF1 = %v, want 0.8", r.MacroF1)
	}
	if math.Abs(r.Accuracy-0.8) > 1e-12 {
		t.Errorf("Accuracy = %v", r.Accuracy)
	}
	// Weighted: (0.8*3 + 0.8*2)/5 = 0.8.
	if math.Abs(r.WeightedF1-0.8) > 1e-12 {
		t.Errorf("WeightedF1 = %v", r.WeightedF1)
	}
}

func TestPredictionOnlyClassExcludedFromMacro(t *testing.T) {
	// "unknown" appears only as a prediction: it must not dilute the
	// macro average (zero support).
	pairs := []Pair{
		{"a", "a"}, {"a", "unknown"}, {"b", "b"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	// a: P=1, R=1/2, F=2/3 ; b: F=1. Macro over {a,b} = 5/6.
	if math.Abs(r.MacroF1-5.0/6.0) > 1e-12 {
		t.Errorf("MacroF1 = %v, want %v", r.MacroF1, 5.0/6.0)
	}
}

func TestUnknownAsTruthClass(t *testing.T) {
	// In the unknown-app protocols "unknown" is a genuine truth class.
	pairs := []Pair{
		{"unknown", "unknown"}, {"unknown", "a"}, {"a", "a"},
	}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	var u ClassStats
	for _, c := range r.Classes {
		if c.Class == "unknown" {
			u = c
		}
	}
	if u.Support != 2 || u.TP != 1 || u.FN != 1 {
		t.Errorf("unknown class stats: %+v", u)
	}
}

func TestAllWrong(t *testing.T) {
	pairs := []Pair{{"a", "b"}, {"b", "a"}}
	r, err := Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy != 0 || r.MacroF1 != 0 {
		t.Errorf("all-wrong: %+v", r)
	}
}

// Property: accuracy equals the fraction of matching pairs, and all
// scores live in [0,1].
func TestEvaluateProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		classes := []string{"a", "b", "c", "unknown"}
		pairs := make([]Pair, len(raw))
		match := 0
		for i, b := range raw {
			tr := classes[int(b)%4]
			pr := classes[int(b/4)%4]
			pairs[i] = Pair{Truth: tr, Pred: pr}
			if tr == pr {
				match++
			}
		}
		r, err := Evaluate(pairs)
		if err != nil {
			return false
		}
		wantAcc := float64(match) / float64(len(raw))
		if math.Abs(r.Accuracy-wantAcc) > 1e-12 {
			return false
		}
		for _, v := range []float64{r.MacroF1, r.WeightedF1, r.MacroPrecision, r.MacroRecall} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReportString(t *testing.T) {
	r, err := Evaluate([]Pair{{"a", "a"}, {"b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"precision", "recall", "f1-score", "support", "macro avg", "accuracy"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRowSumsEqualSupport(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		classes := []string{"x", "y", "z"}
		pairs := make([]Pair, len(raw))
		for i, b := range raw {
			pairs[i] = Pair{Truth: classes[int(b)%3], Pred: classes[int(b/3)%3]}
		}
		rows := make(map[string]int) // the confusion matrix's row sums
		for _, p := range pairs {
			rows[p.Truth]++
		}
		r, _ := Evaluate(pairs)
		support := make(map[string]int)
		for _, c := range r.Classes {
			support[c.Class] = c.Support
		}
		// Every class of the matrix, truth or prediction: a report
		// that left out a truth class fails here.
		for _, p := range pairs {
			if rows[p.Truth] != support[p.Truth] || rows[p.Pred] != support[p.Pred] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
