package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
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
	// depth renders one key index over the dataset, and each depth
	// selection scores every inner fold from that index, read through
	// its training rows) and over the one-time extraction of raw window
	// means: 0 means GOMAXPROCS, 1 runs sequentially. The selected
	// depth, the report, and the resulting dictionary are
	// byte-identical at every worker count — parallelism only changes
	// wall-clock time.
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

// extractRawInto walks the source once in extraction order and records
// every available raw window mean in re, reusing its buffers. It is the
// single extraction walk of the package: Learn, the Recognizer, and the
// Trainer's grid all consume its output, so iteration order — and
// therefore learning/tie-break order — cannot drift between paths.
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
// Fit builds a Trainer over the training set and chooses the depth over
// every row, as Trainer.Classify chooses it over a subset's rows. Each
// execution's raw window means are extracted once. Each candidate depth
// renders every execution's keys once into a key index, on a worker
// pool over depths (FitConfig.Workers); the cross-validation scores
// every fold from those indexes, and the final dictionary learns the
// keys the chosen depth's index already holds, so no key is rendered
// twice. The report, the scores and the dictionary equal those of one
// Dictionary and Recognizer per (depth, fold) cell, and are
// byte-identical at every worker count. To recognize test rows of one
// dataset with what several of its subsets would learn, build one
// Trainer and call its Classify with each subset's rows; it builds no
// dictionary.
func Fit(train *dataset.Dataset, cfg FitConfig) (*Dictionary, FitReport, error) {
	if train.Len() == 0 {
		return nil, FitReport{}, errEmptyTrain
	}
	t, err := NewTrainer(train, cfg)
	if err != nil {
		return nil, FitReport{}, err
	}
	rows := allRows(train)
	order := idOrder(train, rows)
	best, rep, err := t.selectDepth(rows, order, innerFolds(t.label, len(t.labels), rows, cfg.InnerFolds))
	if err != nil {
		return nil, FitReport{}, err
	}
	// The trainer is Fit's own and done rendering: the chosen depth's
	// dictionary learns, in ID order, the keys its index already holds.
	d, ix := t.dicts[best], t.index[best]
	for _, i := range order {
		label := train.Executions[i].Label
		for _, k := range ix.keysOf(i) {
			ref := ix.keys[k]
			d.addKeyBytes(ref.bk, ix.buf[ref.off:ref.end], label, 1)
		}
	}
	return d, rep, nil
}

var errEmptyTrain = errors.New("core: empty training set")

// Trainer recognizes test rows of one dataset with what any subset of
// it would learn, from a single rendering of the dataset's keys, with
// the pairs Fit's dictionary of that subset alone gives. A subset is a
// list of rows, indexes into the dataset's executions, as a
// dataset.Fold holds them. NewTrainer extracts every execution's raw
// window means once and renders them into one key index per candidate
// depth. Classify cross-validates the depth over the training rows' own
// inner folds, reading each index through the rows, then recognizes
// test rows through the cross-validation grid, against the keys the
// training rows produce, building no dictionary. So the outer folds of
// an evaluation, which train on overlapping subsets of one dataset,
// render each execution's keys once instead of once per fold, and
// recognize their test sets with no Dictionary or Recognizer.
//
// A Trainer is read-only once built: any number of goroutines may call
// Classify at once.
type Trainer struct {
	ds     *dataset.Dataset
	cfg    FitConfig
	depths []int
	// dicts[i] renders keys at depths[i]; it learns nothing, except
	// the chosen one in Fit, once every key is rendered.
	dicts []*Dictionary
	// index[i] holds the keys of every execution of ds at depths[i].
	index []*keyIndex
	// labels numbers the labels of ds in label order, and label[i] is
	// row i's number (dataset.LabelIDs): the strata of the inner folds.
	label  []int32
	labels []apps.Label
	// apps numbers the applications of ds for the grids.
	apps appIndex
}

// NewTrainer extracts and renders every execution of ds at each
// candidate depth of cfg, on the worker pool of cfg.Workers. cfg means
// what it means for Fit and holds for every Classify of the trainer.
func NewTrainer(ds *dataset.Dataset, cfg FitConfig) (*Trainer, error) {
	depths, err := candidateDepths(cfg.Depths)
	if err != nil {
		return nil, err
	}
	dicts, err := depthDictionaries(cfg, depths)
	if err != nil {
		return nil, err
	}
	label, labels := ds.LabelIDs()
	raws := extractAll(ds, cfg)
	t := &Trainer{
		ds: ds, cfg: cfg, depths: depths, dicts: dicts, index: make([]*keyIndex, len(dicts)),
		label: label, labels: labels, apps: newAppIndex(ds),
	}
	par.Chunks(len(dicts), cfg.Workers, 1, func(lo, hi int) {
		var sc gridScratch
		for di := lo; di < hi; di++ {
			t.index[di] = newKeyIndex(dicts[di], raws, &sc)
		}
	})
	return t, nil
}

// Classify returns the pairs ClassifyWorkers(d, ds.Subset(test), w)
// returns, at any w, for the dictionary d of Fit(ds.Subset(train),
// cfg), the trainer's dataset ds and cfg, and that Fit's report,
// without building d. It chooses the depth as Fit does, then
// recognizes the test rows through one grid at that depth over the
// training rows followed by the test rows: the test rows are the
// grid's only fold, and the training rows, which no fold tests, only
// produce keys. So each test row gets the votes d's Recognizer would
// give it. A row in both lists produces as a training row and is
// recognized as a test one, against keys that include its own, as d
// would recognize it.
func (t *Trainer) Classify(train, test []int) ([]eval.Pair, FitReport, error) {
	if len(train) == 0 {
		return nil, FitReport{}, errEmptyTrain
	}
	order := idOrder(t.ds, train)
	best, rep, err := t.selectDepth(train, order, innerFolds(t.label, len(t.labels), train, t.cfg.InnerFolds))
	if err != nil {
		return nil, FitReport{}, err
	}
	n := len(train)
	rows := append(append(make([]int, 0, n+len(test)), train...), test...)
	tested := dataset.Fold{Test: make([]int, len(test))}
	for j := range tested.Test {
		tested.Test[j] = n + j
	}
	ix := t.index[best]
	// order lists the training rows, the first n of the grid.
	g := newCVGrid(&t.apps, ix, rows, order, []dataset.Fold{tested})
	var sc gridScratch
	g.produce(ix, &sc)
	pairs := make([]eval.Pair, len(test))
	for j, i := range test {
		pred := Unknown
		if a := g.predict(ix, &sc, 0, n+j); a >= 0 {
			pred = t.apps.names[a]
		}
		pairs[j] = eval.Pair{Truth: t.ds.Executions[i].Label.App, Pred: pred}
	}
	return pairs, rep, nil
}

// selectDepth chooses the depth Fit chooses for the rows train of the
// trainer's dataset, whose positions order lists by ascending execution
// ID, by cross-validating over folds inner folds; below 2 it takes the
// median candidate depth unscored. It returns the chosen depth's
// position in Trainer.depths. Fit, Classify and CrossValidate all
// choose through it.
func (t *Trainer) selectDepth(train, order []int, folds int) (int, FitReport, error) {
	rep := FitReport{DepthScores: make(map[int]float64), Folds: folds}
	best := len(t.depths) / 2
	if folds < 2 {
		rep.Folds = 0
	} else {
		label := make([]int32, len(train))
		for j, i := range train {
			label[j] = t.label[i]
		}
		kf, err := dataset.StratifiedFolds(label, t.labels, folds, t.cfg.Seed)
		if err != nil {
			return 0, FitReport{}, err
		}
		g := newCVGrid(&t.apps, t.index[0], train, order, kf)
		bestScore := -1.0
		for di, score := range crossValidate(g, t.index, t.cfg.Workers) {
			rep.DepthScores[t.depths[di]] = score
			// Strict improvement keeps the tie-break at the earlier
			// candidate: the smaller (more pruned, more general) depth
			// when the candidates ascend.
			if score > bestScore {
				bestScore, best = score, di
			}
		}
	}
	rep.BestDepth = t.depths[best]
	return best, rep, nil
}

// innerFolds is the inner fold count of a Fit on rows, whose label
// numbers, below n, label gives: inner (default 5) clamped to the
// smallest class, so stratified folding stays possible on small
// training sets.
func innerFolds(label []int32, n int, rows []int, inner int) int {
	folds := inner
	if folds <= 0 {
		folds = 5
	}
	counts := make([]int, n)
	for _, i := range rows {
		counts[label[i]]++
	}
	for _, c := range counts {
		if c > 0 {
			folds = min(folds, c)
		}
	}
	return folds
}

// CrossValidate scores fixed rounding depths by k-fold
// cross-validation over ds: each depth's score is the macro F1 of every
// execution recognized by what the other folds learned at that depth,
// the score Fit reports in FitReport.DepthScores. The folds are
// ds.KFold(cfg.InnerFolds, cfg.Seed), taken as given (no default fold
// count, no clamping); cfg.Depths and cfg.Workers mean what they mean
// for Fit. It is a Trainer's depth selection over every row of ds.
func CrossValidate(ds *dataset.Dataset, cfg FitConfig) (map[int]float64, error) {
	if cfg.InnerFolds < 2 {
		// selectDepth would take the median depth unscored.
		return nil, fmt.Errorf("core: cross-validation needs at least 2 folds, InnerFolds is %d", cfg.InnerFolds)
	}
	t, err := NewTrainer(ds, cfg)
	if err != nil {
		return nil, err
	}
	rows := allRows(ds)
	_, rep, err := t.selectDepth(rows, idOrder(ds, rows), cfg.InnerFolds)
	return rep.DepthScores, err
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
// worker pool. Each execution's fps and means are cut from one slab
// each, with room for every window mean of the execution, so the walk
// never grows them; the cuts' capacities end where the next execution's
// begin, so no walk spills into a neighbour's.
func extractAll(ds *dataset.Dataset, cfg FitConfig) []rawExec {
	raws := make([]rawExec, ds.Len())
	per := len(cfg.Windows) * len(cfg.Metrics)
	total := 0
	for _, e := range ds.Executions {
		total += e.NumNodes * per
	}
	fps, means := make([]rawFP, total), make([]float64, total)
	off := 0
	for i, e := range ds.Executions {
		end := off + e.NumNodes*per
		raws[i] = rawExec{fps: fps[off:off:end], means: means[off:off:end]}
		off = end
	}
	par.For(ds.Len(), cfg.Workers, func(i int) {
		extractRawInto(&raws[i], Source(ds.Executions[i]), cfg.Metrics, cfg.Windows, cfg.Joint)
	})
	return raws
}

// allRows returns every row of ds, in order.
func allRows(ds *dataset.Dataset) []int {
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// idOrder returns the positions of rows of ds by ascending execution
// ID: the order in which a dictionary of those rows, and so every
// dictionary of the grid, learns.
func idOrder(ds *dataset.Dataset, rows []int) []int {
	pos := make([]int, len(rows))
	for j := range pos {
		pos[j] = j
	}
	slices.SortFunc(pos, func(a, b int) int { return cmp.Compare(ds.Executions[rows[a]].ID, ds.Executions[rows[b]].ID) })
	return pos
}

// crossValidate scores each depth's key index by leave-fold-out
// recognition over the rows of g: every row of g.folds[f].Test is
// recognized against the rows outside fold f (cvGrid.predict), and a
// depth's score is the macro F1 of those recognitions (cvGrid.score).
// index[i] holds the keys of g's rows at one depth.
//
// The scores are those of one Dictionary per (depth, fold) cell,
// learned in ID order and queried through a Recognizer, but no cell
// dictionary is built. Each index holds every execution's keys once
// (keysFromRaw, so key identity is the Dictionary's), and the grid
// records per key the applications that produced it and the folds that
// test them, from which every fold's vote follows.
//
// Depths run on a pool of workers goroutines, each scoring a span of
// depths through one gridScratch; scores[i] belongs to index[i].
func crossValidate(g *cvGrid, index []*keyIndex, workers int) []float64 {
	scores := make([]float64, len(index))
	par.Chunks(len(index), workers, 1, func(lo, hi int) {
		var sc gridScratch
		for di := lo; di < hi; di++ {
			scores[di] = g.score(index[di], &sc)
		}
	})
	return scores
}

// gridScratch holds the buffers one depth's key index needs only while
// it is built (ks, slots), or the grid only while it recognizes from a
// depth (the rest), for reuse by the next depth.
type gridScratch struct {
	ks         keySet
	slots      []int32
	start, end []int32
	prods      []producer
	votes      []int32
	counts     []classCounts
}

// keyIndex holds one depth's keys of every execution of a dataset,
// numbered so that two keys share an ID exactly when the Dictionary
// would store them under one entry. Execution i's keys have the IDs
// keysOf(i), in extraction order; keys[k] holds key k's bucket and the
// span of its bytes in buf. A Trainer keeps one per depth, and its
// grids read it through their rows.
type keyIndex struct {
	off  []int32
	id   []int32
	keys []keyRef
	buf  []byte
}

// keysOf returns the key IDs of execution i.
func (ix *keyIndex) keysOf(i int) []int32 { return ix.id[ix.off[i]:ix.off[i+1]] }

// newKeyIndex renders the keys of every execution of raws at d's depth
// (keysFromRaw) and numbers them in order of first appearance.
func newKeyIndex(d *Dictionary, raws []rawExec, sc *gridScratch) *keyIndex {
	ix := &keyIndex{off: make([]int32, len(raws)+1)}
	for i, re := range raws {
		ix.off[i+1] = ix.off[i] + int32(len(re.fps))
	}
	nref := ix.off[len(raws)]
	ix.id = make([]int32, 0, nref)
	// An open-addressing table of IDs plus one, at most half full. It
	// keeps each distinct key's bytes once, in buf, and allocates
	// nothing per key.
	lg := bits.Len(uint(2 * nref))
	sc.slots = grow(sc.slots, 1<<lg)
	slots, mask := sc.slots, uint64(1<<lg-1)
	seed := maphash.MakeSeed()
	ks := &sc.ks
	for _, re := range raws {
		d.keysFromRaw(ks, re)
		for _, ref := range ks.refs {
			key := ks.buf[ref.off:ref.end]
			h := maphash.Bytes(seed, key) ^ uint64(ref.bk.metric)<<42 ^ uint64(ref.bk.window)<<21 ^ uint64(ref.bk.node)
			s := (h * 0x9e3779b97f4a7c15) >> (64 - lg) // the product's top lg bits
			for slots[s] != 0 {
				k := ix.keys[slots[s]-1]
				if k.bk == ref.bk && bytes.Equal(ix.buf[k.off:k.end], key) {
					break
				}
				s = (s + 1) & mask
			}
			if slots[s] == 0 {
				slots[s] = int32(len(ix.keys)) + 1
				ix.keys = append(ix.keys, keyRef{bk: ref.bk, off: int32(len(ix.buf)), end: int32(len(ix.buf) + len(key))})
				ix.buf = append(ix.buf, key...)
			}
			ix.id = append(ix.id, slots[s]-1)
		}
	}
	return ix
}

// appIndex numbers the applications of a dataset's executions in order
// of first appearance, so the grid counts votes and recognition
// outcomes in dense arrays.
type appIndex struct {
	// of[i] is the ID of execution i's application; names[a] is the
	// name of application a.
	of    []int32
	names []string
	// byName lists the IDs in ascending name order: the order in which
	// eval.Evaluate sums the classes of a macro F1.
	byName []int32
	// unknown is the ID of an application named Unknown, or -1. As in
	// eval.Evaluate, which compares names, an Unknown prediction is
	// then a prediction of that application.
	unknown int32
}

// newAppIndex numbers the applications of ds.
func newAppIndex(ds *dataset.Dataset) appIndex {
	ai := appIndex{of: make([]int32, ds.Len()), unknown: -1}
	ids := make(map[string]int32)
	for i, e := range ds.Executions {
		id, ok := ids[e.Label.App]
		if !ok {
			id = int32(len(ai.names))
			ids[e.Label.App] = id
			ai.names = append(ai.names, e.Label.App)
		}
		ai.of[i] = id
	}
	ai.byName = make([]int32, len(ai.names))
	for a := range ai.byName {
		ai.byName[a] = int32(a)
	}
	sort.Slice(ai.byName, func(x, y int) bool { return ai.names[ai.byName[x]] < ai.names[ai.byName[y]] })
	if id, ok := ids[Unknown]; ok {
		ai.unknown = id
	}
	return ai
}

// classCounts are one application's recognition outcomes: the counts
// eval.Evaluate keeps per class.
type classCounts struct{ tp, fp, fn, support int32 }

// count records in counts, indexed by application ID, that an execution
// of application truth was recognized as pred (-1: Unknown).
func (ai *appIndex) count(counts []classCounts, truth, pred int32) {
	if pred < 0 {
		pred = ai.unknown
	}
	counts[truth].support++
	if pred == truth {
		counts[truth].tp++
		return
	}
	counts[truth].fn++
	if pred >= 0 {
		counts[pred].fp++
	}
}

// macroF1 is eval.F1Macro of the outcomes in counts: the mean, summed
// in name order, of the eval.ClassScores F1 of every application with
// support; 0 when none has any.
func (ai *appIndex) macroF1(counts []classCounts) float64 {
	sum, classes := 0.0, 0
	for _, a := range ai.byName {
		c := counts[a]
		if c.support == 0 {
			continue
		}
		_, _, f1 := eval.ClassScores(int(c.tp), int(c.fp), int(c.fn))
		sum += f1
		classes++
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}

// cvGrid is the depth-independent part of the cross-validation over a
// list of rows of the trainer's dataset: which fold tests each position
// of the list, and each fold's tie-break order. A row may appear at
// more than one position. Depths share the grid read-only, and read
// their key index through its rows.
type cvGrid struct {
	folds []dataset.Fold
	// rows[j] is the row at position j; the folds list positions.
	rows []int
	// fold[j] is the fold whose Test holds position j, or len(folds)
	// when none does: such a position only produces keys.
	fold []int32
	apps *appIndex
	// byApp lists the positions by application, stably: the order in
	// which produce visits them, so that each key's producers of one
	// application arrive together.
	byApp []int32
	// rank[f][a] is the order in which fold f's dictionary would
	// intern application a; the Recognizer breaks ties in that order.
	rank [][]int32
}

// producer records that positions of application app produced a key,
// and the lowest and highest fold among those positions' folds
// (cvGrid.fold). Every fold's dictionary but fold f holds the key for
// app unless lo == hi == f.
type producer struct{ app, lo, hi int32 }

// newCVGrid builds the grid of folds over the positions of rows. ix is
// any depth's index (they agree on which rows have keys), and order
// lists every position a fold's dictionary may learn, by ascending
// execution ID.
func newCVGrid(apps *appIndex, ix *keyIndex, rows, order []int, folds []dataset.Fold) *cvGrid {
	n := len(rows)
	nf := int32(len(folds))
	g := &cvGrid{folds: folds, rows: rows, fold: make([]int32, n), apps: apps}
	for j := range g.fold {
		g.fold[j] = nf
	}
	for f, fold := range folds {
		for _, j := range fold.Test {
			g.fold[j] = int32(f)
		}
	}
	// Counting sort by application.
	next := make([]int32, len(apps.names)+1)
	for _, i := range rows {
		next[apps.of[i]+1]++
	}
	for a := 1; a < len(next); a++ {
		next[a] += next[a-1]
	}
	g.byApp = make([]int32, n)
	for j, i := range rows {
		a := apps.of[i]
		g.byApp[next[a]] = int32(j)
		next[a]++
	}
	g.rank = make([][]int32, len(folds))
	for f := range folds {
		rank := make([]int32, len(apps.names))
		for a := range rank {
			rank[a] = -1
		}
		next := int32(0)
		for _, j := range order {
			// An execution without keys adds nothing to the
			// dictionary, so it does not intern its application.
			a := apps.of[rows[j]]
			if g.fold[j] == int32(f) || len(ix.keysOf(rows[j])) == 0 || rank[a] >= 0 {
				continue
			}
			rank[a] = next
			next++
		}
		g.rank[f] = rank
	}
	return g
}

// produce lists the producers of every key of ix in sc: those of key k
// are prods[start[k]:end[k]], one per application, in application
// order. A counting pass over the grid's rows sizes each key's span by
// its references; the positions, visited by application, then add a
// producer for the first position of an application to produce a key
// and widen its fold range for every later one.
func (g *cvGrid) produce(ix *keyIndex, sc *gridScratch) {
	n := len(ix.keys)
	sc.start = grow(sc.start, n+1)
	start := sc.start
	refs := 0
	for _, i := range g.rows {
		keys := ix.keysOf(i)
		refs += len(keys)
		for _, k := range keys {
			start[k+1]++
		}
	}
	for k := range n {
		start[k+1] += start[k]
	}
	sc.end = append(sc.end[:0], start[:n]...)
	sc.prods = grow(sc.prods, refs)
	end, prods := sc.end, sc.prods
	for _, j := range g.byApp {
		i := g.rows[j]
		a, f := g.apps.of[i], g.fold[j]
		for _, k := range ix.keysOf(i) {
			if e := end[k]; e > start[k] && prods[e-1].app == a {
				p := &prods[e-1]
				p.lo, p.hi = min(p.lo, f), max(p.hi, f)
			} else {
				prods[e] = producer{app: a, lo: f, hi: f}
				end[k] = e + 1
			}
		}
	}
}

// predict returns the application ID fold f's dictionary recognizes
// position j as, from the producers in sc, or -1 for Unknown. The
// fold's dictionary learned every position outside fold f, and it
// votes the way its Recognizer would:
//   - each key of the row gives one vote to every application that
//     produced it outside the fold;
//   - a tie goes to the application the fold's dictionary interned
//     first: that of the first row it learned, by ID, with at least
//     one key;
//   - a row none of whose keys was produced outside the fold is
//     Unknown.
func (g *cvGrid) predict(ix *keyIndex, sc *gridScratch, f int32, j int) int32 {
	sc.votes = grow(sc.votes, len(g.apps.names))
	votes, matched := sc.votes, false
	for _, k := range ix.keysOf(g.rows[j]) {
		for _, p := range sc.prods[sc.start[k]:sc.end[k]] {
			if p.lo != f || p.hi != f {
				votes[p.app]++
				matched = true
			}
		}
	}
	if !matched {
		return -1
	}
	rank, top := g.rank[f], -1
	for a, v := range votes {
		if v > 0 && (top < 0 || v > votes[top] || v == votes[top] && rank[a] < rank[top]) {
			top = a
		}
	}
	return int32(top)
}

// score returns the pooled macro F1 of every fold's test positions
// recognized from ix: eval.F1Macro of their pairs, from counts per
// application.
func (g *cvGrid) score(ix *keyIndex, sc *gridScratch) float64 {
	g.produce(ix, sc)
	sc.counts = grow(sc.counts, len(g.apps.names))
	for f, fold := range g.folds {
		for _, j := range fold.Test {
			g.apps.count(sc.counts, g.apps.of[g.rows[j]], g.predict(ix, sc, int32(f), j))
		}
	}
	return g.apps.macroF1(sc.counts)
}

// build constructs a dictionary over the whole dataset at a fixed
// depth, learning executions in a deterministic order.
func build(ds *dataset.Dataset, cfg FitConfig, depth int) (*Dictionary, error) {
	d, err := NewDictionary(Config{Metrics: cfg.Metrics, Windows: cfg.Windows, Depth: depth, Joint: cfg.Joint})
	if err != nil {
		return nil, err
	}
	for _, i := range idOrder(ds, allRows(ds)) {
		e := ds.Executions[i]
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
