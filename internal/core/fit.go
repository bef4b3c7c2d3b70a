package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"
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
	// Room for every window mean, so the walk never grows the slices.
	n := src.NodeCount() * len(windows) * len(metrics)
	re := rawExec{fps: make([]rawFP, 0, n), means: make([]float64, 0, n)}
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
// (FitConfig.Workers); the final dictionary learns the keys the chosen
// depth's index already rendered, so each key is rendered once per
// depth. The report, the scores and the dictionary equal those of one
// Dictionary and Recognizer per (depth, fold) cell, and are
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
	var ix *keyIndex
	if report.Folds > 0 {
		kf, err := train.KFold(folds, cfg.Seed)
		if err != nil {
			return nil, FitReport{}, err
		}
		scores, index := crossValidate(train, raws, dicts, kf, cfg.Workers)
		bestScore := -1.0
		for di, score := range scores {
			report.DepthScores[depths[di]] = score
			// Strict improvement keeps the tie-break at the earlier
			// candidate: the smaller (more pruned, more general) depth
			// when the candidates ascend.
			if score > bestScore {
				bestScore, best = score, di
			}
		}
		ix = index[best]
	} else {
		ix = newKeyIndex(dicts[0], raws, new(gridScratch))
	}
	report.BestDepth = depths[best]
	// The chosen depth's dictionary only rendered keys, so it is still
	// empty: learn every execution into it from the keys ix holds.
	d := dicts[best]
	for _, i := range idOrder(train) {
		label := train.Executions[i].Label
		for _, k := range ix.id[ix.off[i]:ix.off[i+1]] {
			ref := ix.keys[k]
			d.addKeyBytes(ref.bk, ix.buf[ref.off:ref.end], label, 1)
		}
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
	scores, _ := crossValidate(ds, extractAll(ds, cfg), dicts, kf, cfg.Workers)
	for di, score := range scores {
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
// into a keyIndex (keysFromRaw, so key identity is the Dictionary's),
// and records per key the distinct (application, fold) pairs of the
// executions that produced it. A cell then votes the way its
// dictionary's Recognizer would:
//   - each key of a test execution gives one vote to every distinct
//     application that produced it outside the fold;
//   - a tie goes to the application the cell's dictionary interned
//     first: that of the first training execution, by ID, with at
//     least one key;
//   - an execution none of whose keys was produced outside the fold
//     is Unknown.
//
// Depths run on a pool of workers goroutines, each scoring a span of
// depths through one gridScratch; scores[i] and index[i] belong to
// dicts[i].
func crossValidate(ds *dataset.Dataset, raws []rawExec, dicts []*Dictionary, folds []dataset.Fold, workers int) (scores []float64, index []*keyIndex) {
	g := newCVGrid(ds, raws, folds)
	scores = make([]float64, len(dicts))
	index = make([]*keyIndex, len(dicts))
	par.Chunks(len(dicts), workers, 1, func(lo, hi int) {
		var sc gridScratch
		for di := lo; di < hi; di++ {
			index[di] = newKeyIndex(dicts[di], raws, &sc)
			scores[di] = g.score(index[di], &sc)
		}
	})
	return scores, index
}

// gridScratch holds the buffers one depth of the grid needs only while
// it is built and scored, for reuse by the next depth.
type gridScratch struct {
	ks         keySet
	slots      []int32
	start, end []int32
	prods      []producer
	pairs      []eval.Pair
	votes      []int32
}

// keyIndex holds one depth's keys of every execution of a training
// set, numbered so that two keys share an ID exactly when the
// Dictionary would store them under one entry. Execution i's keys have
// the IDs id[off[i]:off[i+1]], in extraction order; keys[k] holds key
// k's bucket and the span of its bytes in buf.
type keyIndex struct {
	off  []int32
	id   []int32
	keys []keyRef
	buf  []byte
}

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

// cvGrid is the depth-independent part of the cross-validation: which
// fold tests each execution, its application, and each fold's
// tie-break order. Depths share it read-only.
type cvGrid struct {
	folds []dataset.Fold
	fold  []int32 // the fold whose Test holds each execution
	app   []int32 // each execution's application ID
	apps  []string
	// byAppFold lists the executions by (application, fold), stably:
	// the first of the two counting passes that order each key's
	// producers.
	byAppFold []int32
	// rank[f][a] is the order in which fold f's dictionary would
	// intern application a; the Recognizer breaks ties in that order.
	rank [][]int32
}

// producer records that an execution of application app, tested in
// fold, produced a key; per depth each key's distinct producers are
// sorted by application, then fold.
type producer struct{ app, fold int32 }

func newCVGrid(ds *dataset.Dataset, raws []rawExec, folds []dataset.Fold) *cvGrid {
	n := ds.Len()
	g := &cvGrid{
		folds: folds,
		fold:  make([]int32, n),
		app:   make([]int32, n),
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
	// Counting sort by (application, fold).
	nf := int32(len(folds))
	next := make([]int32, int32(len(g.apps))*nf+1)
	for i := range n {
		next[g.app[i]*nf+g.fold[i]+1]++
	}
	for c := 1; c < len(next); c++ {
		next[c] += next[c-1]
	}
	g.byAppFold = make([]int32, n)
	for i := range n {
		c := g.app[i]*nf + g.fold[i]
		g.byAppFold[next[c]] = int32(i)
		next[c]++
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

// score returns the pooled macro F1 of every fold's test executions
// recognized from ix.
func (g *cvGrid) score(ix *keyIndex, sc *gridScratch) float64 {
	// The producers of key k are prods[start[k]:end[k]]: distinct
	// (application, fold) pairs, sorted by application, then fold. The
	// second counting pass scatters the executions' keys, taken in
	// (application, fold) order, to their key's slots; a pair equal to
	// the key's last one is a duplicate and is dropped.
	n := len(ix.keys)
	sc.start = grow(sc.start, n+1)
	start := sc.start
	for _, k := range ix.id {
		start[k+1]++
	}
	for k := range n {
		start[k+1] += start[k]
	}
	sc.end = append(sc.end[:0], start[:n]...)
	sc.prods = grow(sc.prods, len(ix.id))
	end, prods := sc.end, sc.prods
	for _, i := range g.byAppFold {
		p := producer{app: g.app[i], fold: g.fold[i]}
		for _, k := range ix.id[ix.off[i]:ix.off[i+1]] {
			if e := end[k]; e == start[k] || prods[e-1] != p {
				prods[e] = p
				end[k] = e + 1
			}
		}
	}

	sc.votes = grow(sc.votes, len(g.apps))
	pairs, votes := sc.pairs[:0], sc.votes
	for f, fold := range g.folds {
		rank := g.rank[f]
		for _, i := range fold.Test {
			clear(votes)
			matched := false
			for _, k := range ix.id[ix.off[i]:ix.off[i+1]] {
				last := int32(-1)
				for _, p := range prods[start[k]:end[k]] {
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
	sc.pairs = pairs
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
