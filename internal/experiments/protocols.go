package experiments

import (
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/par"
)

// protocolFold evaluates one fold's rows for a protocol: EFD pairs,
// trained through f, always; baseline pairs when configured.
func (h *Harness) protocolFold(f fitter, train, test []int, unknownApps map[string]bool) (foldPairs, error) {
	var fp foldPairs
	p, err := efdPairs(f, train, test, unknownApps)
	if err != nil {
		return fp, err
	}
	fp.efd = p
	if h.Taxo != nil {
		fp.taxo, err = h.taxoPairs(train, test, unknownApps)
		if err != nil {
			return fp, err
		}
	}
	return fp, nil
}

// NormalFold runs protocol 1: 5-fold cross-validation on the full
// dataset — every application and input size appears in both learning
// and testing.
func (h *Harness) NormalFold() (Score, error) { return h.normalFold(trainer) }

func (h *Harness) normalFold(fitFor fitterFor) (Score, error) {
	s := Score{Protocol: "normal fold"}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	folds, err := foldRun(h, func(train, test []int) (foldPairs, error) {
		return h.protocolFold(f, train, test, nil)
	})
	if err != nil {
		return s, err
	}
	merged := mergeFolds(folds)
	s.Report, err = eval.Evaluate(merged.efd)
	if err != nil {
		return s, err
	}
	s.EFD = s.Report.MacroF1
	if h.Taxo != nil {
		s.Taxonomist = eval.F1Macro(merged.taxo)
		s.HasTaxonomist = true
	}
	return s, nil
}

// SoftInput runs protocol 2: it extends the normal fold by removing one
// input size from each fold's learning set while testing sets stay the
// same. Recognition by application name still counts as correct (e.g.
// returning ft_X for an ft_Y execution), so the protocol measures
// whether fingerprints generalize across input sizes. Results are
// averaged over the removed inputs.
func (h *Harness) SoftInput() (Score, error) { return h.softInput(trainer) }

func (h *Harness) softInput(fitFor fitterFor) (Score, error) {
	return h.soft("soft input", h.heldInputs(), fitFor)
}

// SoftUnknown runs protocol 3: it extends the normal fold by removing
// one application from each fold's learning set while testing sets stay
// the same. The removed application's executions should find no match —
// predicting "unknown" for them is the correct outcome. Results are
// averaged over the removed applications.
func (h *Harness) SoftUnknown() (Score, error) { return h.softUnknown(trainer) }

func (h *Harness) softUnknown(fitFor fitterFor) (Score, error) {
	return h.soft("soft unknown", h.heldApps(), fitFor)
}

// soft runs a soft protocol: for each held-out value, the normal fold
// with the value removed from every fold's learning set.
func (h *Harness) soft(protocol string, held []heldOut, fitFor fitterFor) (Score, error) {
	s := Score{Protocol: protocol, PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	dims := make([]foldPairs, len(held))
	for i, v := range held {
		folds, err := foldRun(h, func(train, test []int) (foldPairs, error) {
			without, _ := v.split(h.DS, train)
			return h.protocolFold(f, without, test, v.unknown)
		})
		if err != nil {
			return s, err
		}
		dims[i] = mergeFolds(folds)
		s.PerDimension[v.name] = eval.F1Macro(dims[i].efd)
	}
	all := mergeFolds(dims)
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(all.efd)
	if err != nil {
		return s, err
	}
	if h.Taxo != nil {
		s.Taxonomist = eval.F1Macro(all.taxo)
		s.HasTaxonomist = true
	}
	return s, nil
}

// HardInput runs protocol 4: the learning set contains all input sizes
// but one, and the testing set contains exclusively the held-out input
// size. The Taxonomist paper did not conduct this experiment. Results
// are averaged over the held-out inputs.
func (h *Harness) HardInput() (Score, error) { return h.hardInput(trainer) }

func (h *Harness) hardInput(fitFor fitterFor) (Score, error) {
	return h.hard("hard input", h.heldInputs(), fitFor)
}

// HardUnknown runs protocol 5: the learning set contains all
// applications but one, and the testing set contains exclusively the
// held-out application. Finding no matching fingerprint — predicting
// "unknown" — is the correct outcome for every test execution. The
// Taxonomist paper did not conduct this experiment. Results are
// averaged over the held-out applications.
func (h *Harness) HardUnknown() (Score, error) { return h.hardUnknown(trainer) }

func (h *Harness) hardUnknown(fitFor fitterFor) (Score, error) {
	return h.hard("hard unknown", h.heldApps(), fitFor)
}

// hard runs a hard protocol: for each held-out value, learning from
// every execution without it and testing on those with it, the values
// on the harness worker pool.
func (h *Harness) hard(protocol string, held []heldOut, fitFor fitterFor) (Score, error) {
	s := Score{Protocol: protocol, PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	all := make([]int, h.DS.Len())
	for i := range all {
		all[i] = i
	}
	dims, err := par.Map(len(held), h.Workers, func(i int) ([]eval.Pair, error) {
		v := held[i]
		train, test := v.split(h.DS, all)
		if len(train) == 0 || len(test) == 0 {
			return nil, fmt.Errorf("experiments: %s %s yields an empty split", protocol, v.name)
		}
		return efdPairs(f, train, test, v.unknown)
	})
	if err != nil {
		return s, err
	}
	for i, v := range held {
		s.PerDimension[v.name] = eval.F1Macro(dims[i])
	}
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(slices.Concat(dims...))
	return s, err
}

// RunAll executes the five protocols in the paper's order.
func (h *Harness) RunAll() ([]Score, error) {
	type runner struct {
		name string
		fn   func() (Score, error)
	}
	runners := []runner{
		{"normal fold", h.NormalFold},
		{"soft input", h.SoftInput},
		{"soft unknown", h.SoftUnknown},
		{"hard input", h.HardInput},
		{"hard unknown", h.HardUnknown},
	}
	out := make([]Score, 0, len(runners))
	for _, r := range runners {
		s, err := r.fn()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}
