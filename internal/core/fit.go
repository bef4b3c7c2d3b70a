package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Source adapts a dataset execution to the WindowSource interface.
func Source(e *dataset.Execution) WindowSource { return execSource{e} }

type execSource struct{ e *dataset.Execution }

func (s execSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	return s.e.WindowMean(metric, node, w)
}

func (s execSource) NodeCount() int { return s.e.NumNodes }

// FitConfig controls dictionary training. Rounding depth is the EFD's
// only tunable parameter; Fit selects it by cross-validation within the
// training set, exactly as the paper prescribes.
type FitConfig struct {
	// Metrics and Windows select the fingerprints (see Config).
	Metrics []string
	Windows []telemetry.Window
	// Joint combines all metrics into composite keys (see Config).
	Joint bool
	// Depths are the candidate rounding depths; nil tries 1 through 6.
	// A non-nil empty list is an error.
	Depths []int
	// InnerFolds is the fold count of the internal cross-validation
	// (default 5, reduced automatically when classes are small).
	InnerFolds int
	// Seed drives the internal fold shuffling.
	Seed int64
	// Workers bounds the worker pool over candidate depths (each
	// depth builds one key index and scores every fold from it) and
	// over the one-time extraction of raw window means: 0 means
	// GOMAXPROCS, 1 runs sequentially. The selected depth, the report,
	// and the resulting dictionary are byte-identical at every worker
	// count — parallelism only changes wall-clock time.
	Workers int
}

// DefaultFitConfig returns the paper's headline setting: the single
// metric nr_mapped_vmstat over [60:120], depths 1–6, 5 inner folds.
func DefaultFitConfig() FitConfig {
	base := DefaultConfig(1)
	return FitConfig{Metrics: base.Metrics, Windows: base.Windows, InnerFolds: 5, Seed: 1}
}

// FitReport describes how the rounding depth was chosen.
type FitReport struct {
	// BestDepth is the selected rounding depth.
	BestDepth int
	// DepthScores maps each candidate depth to its cross-validated
	// macro F1 on the training set.
	DepthScores map[int]float64
	// Folds is the inner fold count actually used (0 when the
	// training set was too small for cross-validation and the median
	// candidate depth was used instead).
	Folds int
}

// rawFP locates one fingerprint's unrounded mean component(s) inside a
// rawExec: the raw means are extracted from the dataset once and
// re-rounded per candidate depth, instead of re-walking the dataset for
// every depth of the cross-validation grid.
type rawFP struct {
	metric int32 // index into cfg.Metrics (unused for joint keys)
	node   int32
	window int32 // index into cfg.Windows
	off    int32 // offset into rawExec.means
	n      int32 // component count (1 unless joint)
}

// rawExec is the depth-independent extraction of one execution.
type rawExec struct {
	fps   []rawFP
	means []float64
}

// extractRaw walks the source once in Extract order and records every
// available raw window mean.
func extractRaw(src WindowSource, metrics []string, windows []telemetry.Window, joint bool) rawExec {
	var re rawExec
	extractRawInto(&re, src, metrics, windows, joint)
	return re
}

// extractRawInto is extractRaw with reused buffers. It is the single
// extraction walk of the package: ExtractInto (public Fingerprint
// form), Learn, the Recognizer, and the Fit grid all consume its
// output, so iteration order — and therefore learning/tie-break order
// — cannot drift between paths.
func extractRawInto(re *rawExec, src WindowSource, metrics []string, windows []telemetry.Window, joint bool) {
	re.fps = re.fps[:0]
	re.means = re.means[:0]
	nodes := src.NodeCount()
	if joint {
		for node := 0; node < nodes; node++ {
			for wi, w := range windows {
				off := len(re.means)
				ok := true
				for _, metric := range metrics {
					mean, have := src.WindowMean(metric, node, w)
					if !have {
						ok = false
						break
					}
					re.means = append(re.means, mean)
				}
				if !ok {
					re.means = re.means[:off]
					continue
				}
				re.fps = append(re.fps, rawFP{
					node: int32(node), window: int32(wi),
					off: int32(off), n: int32(len(metrics)),
				})
			}
		}
		return
	}
	for mi, metric := range metrics {
		for node := 0; node < nodes; node++ {
			for wi, w := range windows {
				mean, have := src.WindowMean(metric, node, w)
				if !have {
					continue
				}
				re.fps = append(re.fps, rawFP{
					metric: int32(mi), node: int32(node), window: int32(wi),
					off: int32(len(re.means)), n: 1,
				})
				re.means = append(re.means, mean)
			}
		}
	}
}

// keysFromRaw renders the raw means of re into canonical key bytes at
// the dictionary's rounding depth, producing exactly the keys
// extractKeys would have produced from the original source.
func (d *Dictionary) keysFromRaw(ks *keySet, re rawExec) {
	ks.buf = ks.buf[:0]
	ks.refs = ks.refs[:0]
	depth := d.cfg.Depth
	for _, fp := range re.fps {
		start := len(ks.buf)
		for c := int32(0); c < fp.n; c++ {
			if c > 0 {
				ks.buf = append(ks.buf, '|')
			}
			ks.buf = stats.AppendRoundedKey(ks.buf, re.means[fp.off+c], depth)
		}
		metric := d.planJoint
		if !d.cfg.Joint {
			metric = d.planMetrics[fp.metric]
		}
		ks.refs = append(ks.refs, keyRef{
			bk:  bucketKey{metric: metric, window: d.planWindows[fp.window], node: fp.node},
			off: int32(start), end: int32(len(ks.buf)),
		})
	}
}

// learnRaw inserts the raw extraction of one labelled execution,
// re-rounded at the dictionary's depth, through the reused key buffer.
func (d *Dictionary) learnRaw(re rawExec, label apps.Label, ks *keySet) {
	d.keysFromRaw(ks, re)
	for _, ref := range ks.refs {
		d.addKeyBytes(ref.bk, ks.buf[ref.off:ref.end], label, 1)
	}
}

// Fit learns a dictionary from the training set, selecting the rounding
// depth by stratified cross-validation within the training set, then
// building the final dictionary at the chosen depth over all training
// executions.
//
// Each execution's raw window means are extracted once per Fit. The
// cross-validation builds one key index per candidate depth from them
// and scores every fold from that index, on a worker pool over depths
// (FitConfig.Workers); the final dictionary learns from the same
// cached means. The report, the scores and the dictionary equal those
// of one Dictionary and Recognizer per (depth, fold) cell, and are
// byte-identical at every worker count.
func Fit(train *dataset.Dataset, cfg FitConfig) (*Dictionary, FitReport, error) {
	if train.Len() == 0 {
		return nil, FitReport{}, fmt.Errorf("core: empty training set")
	}
	depths, err := candidateDepths(cfg.Depths)
	if err != nil {
		return nil, FitReport{}, err
	}
	folds := cfg.InnerFolds
	if folds <= 0 {
		folds = 5
	}
	// Clamp the fold count to the smallest class size so stratified
	// folding stays possible on small training sets.
	minClass := train.Len()
	counts := make(map[string]int)
	for _, e := range train.Executions {
		counts[e.Label.String()]++
	}
	for _, c := range counts {
		if c < minClass {
			minClass = c
		}
	}
	if folds > minClass {
		folds = minClass
	}

	report := FitReport{DepthScores: make(map[int]float64), Folds: folds}
	if folds < 2 {
		// Too small to cross-validate: fall back to the median
		// candidate depth.
		report.Folds = 0
		depths = []int{depths[len(depths)/2]}
	}
	dicts, err := depthDictionaries(cfg, depths)
	if err != nil {
		return nil, FitReport{}, err
	}
	raws := extractAll(train, cfg)
	best := 0
	if report.Folds > 0 {
		kf, err := train.KFold(folds, cfg.Seed)
		if err != nil {
			return nil, FitReport{}, err
		}
		bestScore := -1.0
		for di, score := range crossValidate(train, raws, dicts, kf, cfg.Workers) {
			report.DepthScores[depths[di]] = score
			// Strict improvement keeps the tie-break at the earlier
			// candidate: the smaller (more pruned, more general) depth
			// when the candidates ascend.
			if score > bestScore {
				bestScore, best = score, di
			}
		}
	}
	report.BestDepth = depths[best]
	// The chosen depth's dictionary only rendered keys in the grid, so
	// it is still empty: learn every execution into it, in ID order.
	d := dicts[best]
	var ks keySet
	for _, i := range idOrder(train) {
		d.learnRaw(raws[i], train.Executions[i].Label, &ks)
	}
	return d, report, nil
}

// CrossValidate scores fixed rounding depths by k-fold
// cross-validation over ds: each depth's score is the macro F1 of every
// execution recognized by what the other folds learned at that depth,
// the score Fit reports in FitReport.DepthScores. The folds are
// ds.KFold(cfg.InnerFolds, cfg.Seed), taken as given (no default fold
// count, no clamping); cfg.Depths and cfg.Workers mean what they mean
// for Fit.
func CrossValidate(ds *dataset.Dataset, cfg FitConfig) (map[int]float64, error) {
	depths, err := candidateDepths(cfg.Depths)
	if err != nil {
		return nil, err
	}
	kf, err := ds.KFold(cfg.InnerFolds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dicts, err := depthDictionaries(cfg, depths)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(depths))
	for di, score := range crossValidate(ds, extractAll(ds, cfg), dicts, kf, cfg.Workers) {
		out[depths[di]] = score
	}
	return out, nil
}

// candidateDepths resolves FitConfig.Depths: nil means 1 through 6.
func candidateDepths(depths []int) ([]int, error) {
	if depths == nil {
		return []int{1, 2, 3, 4, 5, 6}, nil
	}
	if len(depths) == 0 {
		return nil, fmt.Errorf("core: no candidate rounding depths (FitConfig.Depths is empty; nil means 1 through 6)")
	}
	return depths, nil
}

// depthDictionaries validates the fingerprint configuration at every
// depth and returns one empty dictionary per depth; the grid renders
// keys through them.
func depthDictionaries(cfg FitConfig, depths []int) ([]*Dictionary, error) {
	dicts := make([]*Dictionary, len(depths))
	for di, depth := range depths {
		d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: cfg.Joint})
		if err != nil {
			return nil, err
		}
		dicts[di] = d
	}
	return dicts, nil
}

// extractAll extracts every execution's raw window means once, on the
// worker pool.
func extractAll(ds *dataset.Dataset, cfg FitConfig) []rawExec {
	raws := make([]rawExec, ds.Len())
	par.For(ds.Len(), cfg.Workers, func(i int) {
		raws[i] = extractRaw(Source(ds.Executions[i]), cfg.Metrics, cfg.Windows, cfg.Joint)
	})
	return raws
}

// idOrder returns the dataset's execution indexes by ascending ID: the
// order in which build, and so every dictionary of the grid, learns.
func idOrder(ds *dataset.Dataset) []int {
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ds.Executions[idx[a]].ID < ds.Executions[idx[b]].ID })
	return idx
}

// crossValidate scores each depth of dicts (empty dictionaries, one per
// candidate depth) by leave-fold-out recognition: every execution of
// folds[f].Test is recognized against the executions outside fold f,
// and a depth's score is the macro F1 of the pairs pooled in fold
// order. folds must partition ds the way dataset.KFold does: each
// execution is in exactly one fold's Test and every other fold's Train.
// raws holds the extraction of every execution of ds.
//
// The scores are those of one Dictionary per (depth, fold) cell,
// learned in ID order and queried through a Recognizer, but no cell
// dictionary is built. Each depth renders every execution's keys once
// (keysFromRaw, so key identity is the Dictionary's), interns them to
// dense IDs, and records per key the distinct (application, fold)
// pairs of the executions that produced it. A cell then votes the way
// its dictionary's Recognizer would:
//   - each key of a test execution gives one vote to every distinct
//     application that produced it outside the fold;
//   - a tie goes to the application the cell's dictionary interned
//     first: that of the first training execution, by ID, with at
//     least one key;
//   - an execution none of whose keys was produced outside the fold
//     is Unknown.
//
// Depths run on a pool of workers goroutines; scores[i] belongs to
// dicts[i].
func crossValidate(ds *dataset.Dataset, raws []rawExec, dicts []*Dictionary, folds []dataset.Fold, workers int) []float64 {
	g := newCVGrid(ds, raws, folds)
	scores := make([]float64, len(dicts))
	par.For(len(dicts), workers, func(di int) {
		scores[di] = g.score(dicts[di])
	})
	return scores
}

// cvGrid is the depth-independent part of the cross-validation: where
// each execution's keys sit, which fold tests it, its application, and
// each fold's tie-break order. Depths share it read-only.
type cvGrid struct {
	raws  []rawExec
	folds []dataset.Fold
	// refOff[i]:refOff[i+1] spans execution i's keys in the per-depth
	// key slice. The key count of an execution does not depend on the
	// depth.
	refOff []int32
	fold   []int32 // the fold whose Test holds each execution
	app    []int32 // each execution's application ID
	apps   []string
	// rank[f][a] is the order in which fold f's dictionary would
	// intern application a; the Recognizer breaks ties in that order.
	rank [][]int32
}

// producer records that an execution of application app, tested in
// fold, produced key; per depth the sorted, deduplicated producers
// index each key.
type producer struct{ key, app, fold int32 }

func newCVGrid(ds *dataset.Dataset, raws []rawExec, folds []dataset.Fold) *cvGrid {
	n := ds.Len()
	g := &cvGrid{
		raws: raws, folds: folds,
		refOff: make([]int32, n+1),
		fold:   make([]int32, n),
		app:    make([]int32, n),
	}
	for i, re := range raws {
		g.refOff[i+1] = g.refOff[i] + int32(len(re.fps))
	}
	for f, fold := range folds {
		for _, i := range fold.Test {
			g.fold[i] = int32(f)
		}
	}
	appIDs := make(map[string]int32)
	for i, e := range ds.Executions {
		id, ok := appIDs[e.Label.App]
		if !ok {
			id = int32(len(g.apps))
			appIDs[e.Label.App] = id
			g.apps = append(g.apps, e.Label.App)
		}
		g.app[i] = id
	}
	order := idOrder(ds)
	g.rank = make([][]int32, len(folds))
	for f := range folds {
		rank := make([]int32, len(g.apps))
		for a := range rank {
			rank[a] = -1
		}
		next := int32(0)
		for _, i := range order {
			// An execution without keys adds nothing to the
			// dictionary, so it does not intern its application.
			if g.fold[i] == int32(f) || len(raws[i].fps) == 0 || rank[g.app[i]] >= 0 {
				continue
			}
			rank[g.app[i]] = next
			next++
		}
		g.rank[f] = rank
	}
	return g
}

// score builds d's depth's key index and returns the pooled macro F1 of
// every fold's test executions recognized from it.
func (g *cvGrid) score(d *Dictionary) float64 {
	nref := g.refOff[len(g.raws)]
	// Intern every key: bucket coordinates plus canonical bytes, so two
	// keys share an ID exactly when the Dictionary would store them
	// under one entry.
	ids := make(map[string]int32, nref)
	keys := make([]int32, nref)
	var ks keySet
	var kb []byte
	for i, re := range g.raws {
		d.keysFromRaw(&ks, re)
		for r, ref := range ks.refs {
			kb = binary.LittleEndian.AppendUint32(kb[:0], uint32(ref.bk.metric))
			kb = binary.LittleEndian.AppendUint32(kb, uint32(ref.bk.window))
			kb = binary.LittleEndian.AppendUint32(kb, uint32(ref.bk.node))
			kb = append(kb, ks.buf[ref.off:ref.end]...)
			id, ok := ids[string(kb)]
			if !ok {
				id = int32(len(ids))
				ids[string(kb)] = id
			}
			keys[g.refOff[i]+int32(r)] = id
		}
	}
	// The producers of key k are prods[start[k]:start[k+1]]: distinct
	// (application, fold) pairs, sorted by application.
	prods := make([]producer, nref)
	for i := range g.raws {
		for r := g.refOff[i]; r < g.refOff[i+1]; r++ {
			prods[r] = producer{key: keys[r], app: g.app[i], fold: g.fold[i]}
		}
	}
	slices.SortFunc(prods, func(a, b producer) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.app, b.app), cmp.Compare(a.fold, b.fold))
	})
	prods = slices.Compact(prods)
	start := make([]int32, len(ids)+1)
	for _, p := range prods {
		start[p.key+1]++
	}
	for k := range len(ids) {
		start[k+1] += start[k]
	}

	pairs := make([]eval.Pair, 0, len(g.raws))
	votes := make([]int32, len(g.apps))
	for f, fold := range g.folds {
		rank := g.rank[f]
		for _, i := range fold.Test {
			clear(votes)
			matched := false
			for _, k := range keys[g.refOff[i]:g.refOff[i+1]] {
				last := int32(-1)
				for _, p := range prods[start[k]:start[k+1]] {
					if p.fold != int32(f) && p.app != last {
						votes[p.app]++
						last, matched = p.app, true
					}
				}
			}
			pred := Unknown
			if matched {
				top := -1
				for a, v := range votes {
					if v > 0 && (top < 0 || v > votes[top] || v == votes[top] && rank[a] < rank[top]) {
						top = a
					}
				}
				pred = g.apps[top]
			}
			pairs = append(pairs, eval.Pair{Truth: g.apps[g.app[i]], Pred: pred})
		}
	}
	return eval.F1Macro(pairs)
}

// build constructs a dictionary over the whole dataset at a fixed
// depth, learning executions in a deterministic order.
func build(ds *dataset.Dataset, cfg FitConfig, depth int) (*Dictionary, error) {
	d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: cfg.Joint})
	if err != nil {
		return nil, err
	}
	execs := make([]*dataset.Execution, len(ds.Executions))
	copy(execs, ds.Executions)
	sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
	for _, e := range execs {
		d.Learn(Source(e), e.Label)
	}
	return d, nil
}

// Build constructs a dictionary over the dataset at a fixed rounding
// depth without any tuning, for callers that already know the depth
// (e.g. the Table 4 example uses depth 2).
func Build(ds *dataset.Dataset, cfg Config) (*Dictionary, error) {
	return build(ds, FitConfig{Metrics: cfg.Metrics, Windows: cfg.Windows, Joint: cfg.Joint}, cfg.Depth)
}

// Classify recognizes every execution of the dataset and pairs the
// predicted application with the ground-truth application name. The
// correctness criterion follows the paper: only the application name is
// compared, so returning ft for an ft execution with a different input
// size is correct.
//
// Executions are evaluated concurrently in contiguous chunks (one
// reused Recognizer per chunk) on up to GOMAXPROCS goroutines; the
// returned pair order is the dataset order regardless of scheduling.
// Use ClassifyWorkers to bound (or serialize) the pool.
func Classify(d *Dictionary, ds *dataset.Dataset) []eval.Pair {
	return ClassifyWorkers(d, ds, 0)
}

// ClassifyWorkers is Classify with an explicit worker bound: 0 means
// GOMAXPROCS, 1 runs single-threaded (profiling, or embedding inside
// an already-parallel caller). The pair order is identical at every
// worker count.
func ClassifyWorkers(d *Dictionary, ds *dataset.Dataset, workers int) []eval.Pair {
	pairs := make([]eval.Pair, ds.Len())
	par.Chunks(ds.Len(), workers, 16, func(lo, hi int) {
		rec := d.NewRecognizer()
		for i := lo; i < hi; i++ {
			e := ds.Executions[i]
			pairs[i] = eval.Pair{Truth: e.Label.App, Pred: rec.Recognize(Source(e)).Top()}
		}
	})
	return pairs
}
