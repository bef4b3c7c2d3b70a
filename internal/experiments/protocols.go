package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
)

// protocolFold evaluates one fold for a protocol: EFD pairs, trained
// through f, always; baseline pairs when configured.
func (h *Harness) protocolFold(f fitter, train, test *dataset.Dataset, unknownApps map[string]bool) (foldPairs, error) {
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
	merged, err := h.foldRun(func(train, test *dataset.Dataset) (foldPairs, error) {
		return h.protocolFold(f, train, test, nil)
	})
	if err != nil {
		return s, err
	}
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
	s := Score{Protocol: "soft input", PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	var allEFD, allTaxo []eval.Pair
	for _, in := range h.removableInputs() {
		merged, err := h.foldRun(func(train, test *dataset.Dataset) (foldPairs, error) {
			return h.protocolFold(f, train.WithoutInput(in), test, nil)
		})
		if err != nil {
			return s, err
		}
		s.PerDimension[string(in)] = eval.F1Macro(merged.efd)
		allEFD = append(allEFD, merged.efd...)
		allTaxo = append(allTaxo, merged.taxo...)
	}
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(allEFD)
	if err != nil {
		return s, err
	}
	if h.Taxo != nil {
		s.Taxonomist = eval.F1Macro(allTaxo)
		s.HasTaxonomist = true
	}
	return s, nil
}

// SoftUnknown runs protocol 3: it extends the normal fold by removing
// one application from each fold's learning set while testing sets stay
// the same. The removed application's executions should find no match —
// predicting "unknown" for them is the correct outcome. Results are
// averaged over the removed applications.
func (h *Harness) SoftUnknown() (Score, error) { return h.softUnknown(trainer) }

func (h *Harness) softUnknown(fitFor fitterFor) (Score, error) {
	s := Score{Protocol: "soft unknown", PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	var allEFD, allTaxo []eval.Pair
	for _, app := range h.DS.Apps() {
		unknown := map[string]bool{app: true}
		merged, err := h.foldRun(func(train, test *dataset.Dataset) (foldPairs, error) {
			return h.protocolFold(f, train.WithoutApp(app), test, unknown)
		})
		if err != nil {
			return s, err
		}
		s.PerDimension[app] = eval.F1Macro(merged.efd)
		allEFD = append(allEFD, merged.efd...)
		allTaxo = append(allTaxo, merged.taxo...)
	}
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(allEFD)
	if err != nil {
		return s, err
	}
	if h.Taxo != nil {
		s.Taxonomist = eval.F1Macro(allTaxo)
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
	s := Score{Protocol: "hard input", PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	inputs := h.removableInputs()
	dims := make([][]eval.Pair, len(inputs))
	errs := make([]error, len(inputs))
	par.For(len(inputs), h.Workers, func(i int) {
		in := inputs[i]
		train := h.DS.WithoutInput(in)
		test := h.DS.OnlyInput(in)
		if train.Len() == 0 || test.Len() == 0 {
			errs[i] = fmt.Errorf("experiments: hard input %s yields an empty split", in)
			return
		}
		dims[i], errs[i] = efdPairs(f, train, test, nil)
	})
	var all []eval.Pair
	for i, in := range inputs {
		if errs[i] != nil {
			return s, errs[i]
		}
		s.PerDimension[string(in)] = eval.F1Macro(dims[i])
		all = append(all, dims[i]...)
	}
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(all)
	return s, err
}

// HardUnknown runs protocol 5: the learning set contains all
// applications but one, and the testing set contains exclusively the
// held-out application. Finding no matching fingerprint — predicting
// "unknown" — is the correct outcome for every test execution. The
// Taxonomist paper did not conduct this experiment. Results are
// averaged over the held-out applications.
func (h *Harness) HardUnknown() (Score, error) { return h.hardUnknown(trainer) }

func (h *Harness) hardUnknown(fitFor fitterFor) (Score, error) {
	s := Score{Protocol: "hard unknown", PerDimension: make(map[string]float64)}
	f, err := fitFor(h.DS, h.Fit)
	if err != nil {
		return s, err
	}
	appNames := h.DS.Apps()
	dims := make([][]eval.Pair, len(appNames))
	errs := make([]error, len(appNames))
	par.For(len(appNames), h.Workers, func(i int) {
		app := appNames[i]
		train := h.DS.WithoutApp(app)
		test := h.DS.OnlyApp(app)
		if train.Len() == 0 || test.Len() == 0 {
			errs[i] = fmt.Errorf("experiments: hard unknown %s yields an empty split", app)
			return
		}
		dims[i], errs[i] = efdPairs(f, train, test, map[string]bool{app: true})
	})
	var all []eval.Pair
	for i, app := range appNames {
		if errs[i] != nil {
			return s, errs[i]
		}
		s.PerDimension[app] = eval.F1Macro(dims[i])
		all = append(all, dims[i]...)
	}
	s.EFD = meanOf(s.PerDimension)
	s.Report, err = eval.Evaluate(all)
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
