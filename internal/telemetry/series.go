// Package telemetry defines the time-series model shared by the
// synthetic monitoring substrate and the recognition layers: per-node,
// per-metric series of 1 Hz samples, window extraction, and alignment.
//
// # Columnar layout
//
// A Series stores its samples column-wise (structure of arrays): one
// []float64 of values and, only when needed, one []time.Duration of
// offsets. Series whose samples arrive on the regular 1 Hz grid — the
// monitoring path, which produces exactly offset i*DefaultPeriod for
// the i-th sample — never materialize the offset column at all; the
// offsets are implicit in the index, window bounds are computed by
// integer arithmetic in O(1), and ingest is a single value append.
// Irregular or out-of-order samples transparently materialize the
// offset column and fall back to binary-searched bounds.
//
// A Series is the only columnar series type: the durable store's
// memtable (internal/tsdb) accumulates Series too, appending whole
// runs with AppendRun and reading the columns back through ValuesView
// and OffsetsView, so the grid rule lives in this package alone.
//
// # The sealed lifecycle
//
// A Series is mutable during ingest (Append, AppendRun, Sort) and can
// answer window queries at any time by scanning the window. Calling
// Seal freezes the current contents and builds a per-series prefix sum
// of the values (~106-bit double-doubles), after which WindowMean
// answers any window in O(1)/O(log n) regardless of window length —
// probing many windows over one series, as Summarize, metric sweeps
// and aligned recognition do, amortizes to a single pass. Sealing
// costs one pass and 16 bytes per sample; mutating the series again
// simply drops the seal. Sealed and unsealed answers agree to the last
// bit except in astronomically unlikely half-ulp ties (both paths
// round the same correctly-rounded window sums).
package telemetry

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/stats"
)

// DefaultPeriod is the sampling period used by the LDMS-style monitor,
// matching the 1-second collection interval of the Taxonomist dataset.
// It is also the implicit-grid period: series sampled at exactly this
// cadence store no offset column.
const DefaultPeriod = time.Second

// Sample is one timestamped measurement of a metric on a node. Time is
// expressed as an offset from the start of the execution, which keeps
// executions comparable regardless of when they ran.
type Sample struct {
	Offset time.Duration
	Value  float64
}

// Series is an ordered sequence of samples of a single metric on a
// single node, stored column-wise (see the package comment). Samples
// are kept sorted by offset; Append tracks whether samples arrived in
// order (the monitoring path), and the windowing accessors refuse
// flagged-unsorted data with ErrUnsortedSeries rather than search over
// it — call Sort after out-of-order ingestion. Refusing (instead of
// sorting lazily) keeps the window accessors read-only, so concurrent
// reads of a sorted series stay safe.
type Series struct {
	Metric string
	Node   int

	// offs is the explicit offset column; nil means the implicit grid:
	// the i-th sample sits at exactly i*DefaultPeriod. An explicit
	// column always holds at least one offset off that grid.
	offs []time.Duration
	// vals is the value column.
	vals []float64
	// unsorted records that an Append delivered an offset below the
	// then-last sample, so the samples need a Sort before windowing.
	unsorted bool
	// pre is the sealed prefix-sum column: pre[i] is the double-double
	// sum of vals[:i], so a window sum is one subtraction. nil until
	// Seal; dropped by any mutation.
	pre []stats.DD
}

// NewSeries returns an empty series for the given metric and node with
// capacity for n samples.
func NewSeries(metric string, node, n int) *Series {
	return &Series{Metric: metric, Node: node, vals: make([]float64, 0, n)}
}

// NewSeriesFromColumns builds a series directly from parallel columns —
// the bulk-ingest constructor. vals is adopted without copying; the
// caller must not use it afterwards (subslices of one backing array
// are fine: the series never writes past its own length). offs may be
// nil (meaning the implicit 1 Hz grid), and offsets that all sit
// exactly on the grid are likewise dropped in favour of the implicit
// form; irregular offsets are copied, so a shared offsets column can
// be passed for every series of a node without a later Sort of one
// series corrupting its siblings.
func NewSeriesFromColumns(metric string, node int, offs []time.Duration, vals []float64) *Series {
	s := &Series{Metric: metric, Node: node, vals: vals}
	if offs == nil {
		return s
	}
	if len(offs) != len(vals) {
		panic("telemetry: NewSeriesFromColumns column lengths differ")
	}
	grid := true
	for i, off := range offs {
		if off != time.Duration(i)*DefaultPeriod {
			grid = false
			break
		}
	}
	if grid {
		return s
	}
	s.offs = make([]time.Duration, len(offs))
	copy(s.offs, offs)
	for i := 1; i < len(s.offs); i++ {
		if s.offs[i] < s.offs[i-1] {
			s.unsorted = true
			break
		}
	}
	return s
}

// Append adds a sample, keeping the series sorted when samples arrive
// in order (the monitoring path). Samples arriving on the 1 Hz grid
// append only to the value column. Out-of-order appends are accepted
// and flagged; windowing fails with ErrUnsortedSeries until Sort runs.
// Appending to a sealed series drops the seal.
func (s *Series) Append(offset time.Duration, value float64) {
	s.pre = nil
	n := len(s.vals)
	if s.offs == nil {
		if offset == time.Duration(n)*DefaultPeriod {
			s.vals = append(s.vals, value)
			return
		}
		s.materializeOffsets()
	}
	if n > 0 && offset < s.offs[n-1] {
		s.unsorted = true
	}
	s.offs = append(s.offs, offset)
	s.vals = append(s.vals, value)
}

// AppendRun appends a run of samples, leaving exactly the state that
// calling Append once per sample, in order, would leave: a run that
// continues the implicit grid appends only values, any other run
// materializes the offset column. offs and vals are copied and must
// have equal lengths.
func (s *Series) AppendRun(offs []time.Duration, vals []float64) {
	if len(offs) != len(vals) {
		panic("telemetry: AppendRun column lengths differ")
	}
	if len(vals) == 0 {
		return
	}
	s.pre = nil
	if s.offs == nil {
		n, k := len(s.vals), 0
		for k < len(offs) && offs[k] == time.Duration(n+k)*DefaultPeriod {
			k++
		}
		if k == len(offs) {
			s.vals = append(s.vals, vals...)
			return
		}
		s.materializeOffsets()
	}
	prev := time.Duration(math.MinInt64)
	if n := len(s.offs); n > 0 {
		prev = s.offs[n-1]
	}
	for _, off := range offs {
		if off < prev {
			s.unsorted = true
		}
		prev = off
	}
	s.offs = append(s.offs, offs...)
	s.vals = append(s.vals, vals...)
}

// materializeOffsets converts the implicit grid into an explicit offset
// column, in preparation for an off-grid append.
func (s *Series) materializeOffsets() {
	offs := make([]time.Duration, len(s.vals), cap(s.vals)+1)
	for i := range offs {
		offs[i] = time.Duration(i) * DefaultPeriod
	}
	s.offs = offs
}

// Sort orders the samples by offset and clears the out-of-order flag.
// Ties keep their relative order. If the sorted offsets land exactly
// on the 1 Hz grid, the offset column is dropped again and the series
// returns to the implicit-grid fast path. Sorting drops any seal.
func (s *Series) Sort() {
	s.pre = nil
	if s.offs == nil { // implicit grid is sorted by construction
		s.unsorted = false
		return
	}
	pairs := make([]Sample, len(s.vals))
	for i := range pairs {
		pairs[i] = Sample{Offset: s.offs[i], Value: s.vals[i]}
	}
	slices.SortStableFunc(pairs, compareSampleOffsets)
	for i, p := range pairs {
		s.offs[i], s.vals[i] = p.Offset, p.Value
	}
	s.unsorted = false
	s.compactGrid()
}

// compareSampleOffsets orders samples by offset; it is a plain
// top-level function, so SortStableFunc runs without a closure capture.
func compareSampleOffsets(a, b Sample) int { return cmp.Compare(a.Offset, b.Offset) }

// compactGrid drops the explicit offset column when every offset sits
// exactly on the 1 Hz grid.
func (s *Series) compactGrid() {
	for i, off := range s.offs {
		if off != time.Duration(i)*DefaultPeriod {
			return
		}
	}
	s.offs = nil
}

// Sorted reports whether every Append so far arrived in offset order
// (or a Sort ran since the last out-of-order one).
func (s *Series) Sorted() bool { return !s.unsorted }

// Seal freezes the series for querying: it sorts if needed and builds
// the prefix sums that make WindowMean independent of window length.
// Sealing is idempotent and costs one pass over the samples plus 16
// bytes per sample; any later Append, AppendRun or Sort drops the
// seal. A series must not be sealed concurrently with reads (seal
// once, then share).
func (s *Series) Seal() {
	if s.unsorted {
		s.Sort()
	}
	if s.pre != nil {
		return
	}
	pre := make([]stats.DD, len(s.vals)+1)
	var acc stats.DD
	for i, x := range s.vals {
		acc.Add(x)
		pre[i+1] = acc
	}
	s.pre = pre
}

// Sealed reports whether the prefix sums are current.
func (s *Series) Sealed() bool { return s.pre != nil }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.vals) }

// OffsetAt returns the offset of the i-th sample.
func (s *Series) OffsetAt(i int) time.Duration {
	if s.offs == nil {
		if i < 0 || i >= len(s.vals) {
			panic("telemetry: OffsetAt index out of range")
		}
		return time.Duration(i) * DefaultPeriod
	}
	return s.offs[i]
}

// ValueAt returns the value of the i-th sample.
func (s *Series) ValueAt(i int) float64 { return s.vals[i] }

// At returns the i-th sample.
func (s *Series) At(i int) Sample {
	return Sample{Offset: s.OffsetAt(i), Value: s.vals[i]}
}

// Duration reports the offset of the last sample, or 0 when empty.
func (s *Series) Duration() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	return s.OffsetAt(len(s.vals) - 1)
}

// Values returns a copy of the raw values of all samples, in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// ValuesView returns the value column itself, avoiding the copy that
// Values makes. The caller must treat it as read-only and must not
// hold it across mutations of the series.
func (s *Series) ValuesView() []float64 { return s.vals }

// OffsetsView returns the explicit offset column itself, or nil when
// the series sits on the implicit 1 Hz grid (every OffsetAt(i) is
// i*DefaultPeriod). Like ValuesView it is read-only and must not be
// held across mutations.
func (s *Series) OffsetsView() []time.Duration { return s.offs }

// AppendOffsets appends the offset of every sample, in order, to dst
// and returns the extended slice; grid offsets are synthesized.
func (s *Series) AppendOffsets(dst []time.Duration) []time.Duration {
	if s.offs != nil {
		return append(dst, s.offs...)
	}
	dst = slices.Grow(dst, len(s.vals))
	for i := range s.vals {
		dst = append(dst, time.Duration(i)*DefaultPeriod)
	}
	return dst
}

// Window is a half-open time interval [Start, End) measured from the
// beginning of an execution. The paper's fingerprint interval is
// [60s, 120s).
type Window struct {
	Start time.Duration
	End   time.Duration
}

// PaperWindow is the interval the paper uses for fingerprints: between
// 60 and 120 seconds after execution start, chosen to skip the noisy
// initialization phase while still answering early.
var PaperWindow = Window{Start: 60 * time.Second, End: 120 * time.Second}

// String renders the window in the paper's "[60:120]" notation
// (seconds).
func (w Window) String() string { return w.Key() }

// Key returns the window's canonical "[60:120]" encoding — the form
// used as the window component of fingerprint keys and serialized
// dictionaries. It builds the string directly (no fmt machinery), so
// callers that need the key once per window can afford it; hot paths
// should still compute it once and reuse it, or index by the Window
// value itself, which is comparable.
func (w Window) Key() string {
	var buf [32]byte
	b := append(buf[:0], '[')
	b = strconv.AppendInt(b, int64(w.Start/time.Second), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(w.End/time.Second), 10)
	b = append(b, ']')
	return string(b)
}

// Valid reports whether the window is non-empty and non-negative.
func (w Window) Valid() bool {
	return w.Start >= 0 && w.End > w.Start
}

// Duration reports the length of the window.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// Contains reports whether offset falls inside the half-open window.
func (w Window) Contains(offset time.Duration) bool {
	return offset >= w.Start && offset < w.End
}

// ParseWindow parses the "[60:120]" notation into a Window.
func ParseWindow(s string) (Window, error) {
	var a, b int
	if _, err := fmt.Sscanf(s, "[%d:%d]", &a, &b); err != nil {
		return Window{}, fmt.Errorf("telemetry: bad window %q: %w", s, err)
	}
	w := Window{Start: time.Duration(a) * time.Second, End: time.Duration(b) * time.Second}
	if !w.Valid() {
		return Window{}, fmt.Errorf("telemetry: invalid window %q", s)
	}
	return w, nil
}

// ErrShortSeries is returned when a series does not cover the requested
// window.
var ErrShortSeries = errors.New("telemetry: series does not cover window")

// ErrUnsortedSeries is returned by the windowing accessors when
// out-of-order appends were observed and Sort has not run since: a
// binary search over unsorted samples would silently return wrong
// windows.
var ErrUnsortedSeries = errors.New("telemetry: series has out-of-order samples; call Sort first")

// errInvalidWindow is the cold formatting helper for window's invalid
// bound rejection, kept out of the //efd:hotpath body; //efd:coldpath
// stops the transitive hotpath rule at this reviewed boundary.
//
//efd:coldpath
func errInvalidWindow(w Window) error { return fmt.Errorf("telemetry: invalid window %v", w) }

// window resolves the [lo, hi) sample range covered by w. On the
// implicit grid the bounds are integer arithmetic (O(1)); with an
// explicit offset column they binary-search it. It is strictly
// read-only: flagged-unsorted series are rejected, never sorted in
// place, so concurrent reads of a well-formed series are race-free.
//
//efd:hotpath
func (s *Series) window(w Window) (lo, hi int, err error) {
	if !w.Valid() {
		return 0, 0, errInvalidWindow(w)
	}
	if s.unsorted {
		return 0, 0, ErrUnsortedSeries
	}
	n := len(s.vals)
	if s.offs == nil {
		// First index with i*period >= bound, i.e. ceil(bound/period).
		lo = int((w.Start + DefaultPeriod - 1) / DefaultPeriod)
		hi = int((w.End + DefaultPeriod - 1) / DefaultPeriod)
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
	} else {
		lo = sort.Search(n, func(i int) bool {
			return s.offs[i] >= w.Start
		})
		hi = sort.Search(n, func(i int) bool {
			return s.offs[i] >= w.End
		})
	}
	if lo == hi {
		return 0, 0, ErrShortSeries
	}
	return lo, hi, nil
}

// Slice returns the values of the samples falling in the window. It
// returns ErrShortSeries when the series ends before the window starts
// or contains no samples in the window, so callers can distinguish "the
// application finished early" from "the application was idle", and
// ErrUnsortedSeries when out-of-order appends have not been Sorted yet.
func (s *Series) Slice(w Window) ([]float64, error) {
	lo, hi, err := s.window(w)
	if err != nil {
		return nil, err
	}
	out := make([]float64, hi-lo)
	copy(out, s.vals[lo:hi])
	return out, nil
}

// WindowMean returns the arithmetic mean of the samples in the window.
// On a sealed series it is a prefix-sum subtraction — O(1) on the
// implicit grid, O(log n) with explicit offsets, independent of window
// length either way. Unsealed series are scanned without materializing
// a slice; both paths accumulate in double-double precision and round
// the same correctly-rounded window sum.
//
//efd:hotpath
func (s *Series) WindowMean(w Window) (float64, error) {
	lo, hi, err := s.window(w)
	if err != nil {
		return 0, err
	}
	if p := s.pre; p != nil {
		sum := p[hi].Sub(p[lo])
		return sum.Value() / float64(hi-lo), nil
	}
	var sum stats.DD
	for _, x := range s.vals[lo:hi] {
		sum.Add(x)
	}
	return sum.Value() / float64(hi-lo), nil
}

// Resample returns a copy of the series re-gridded to the given period
// using last-observation-carried-forward, starting at offset zero and
// ending at the series duration. It is used to repair telemetry with
// missing or jittered collection ticks before windowing.
func (s *Series) Resample(period time.Duration) (*Series, error) {
	if period <= 0 {
		return nil, errors.New("telemetry: non-positive resample period")
	}
	if len(s.vals) == 0 {
		return &Series{Metric: s.Metric, Node: s.Node}, nil
	}
	dur := s.Duration()
	n := int(dur/period) + 1
	out := NewSeries(s.Metric, s.Node, n)
	j := 0
	last := s.vals[0]
	for i := 0; i < n; i++ {
		at := time.Duration(i) * period
		for j < len(s.vals) && s.OffsetAt(j) <= at {
			last = s.vals[j]
			j++
		}
		out.Append(at, last)
	}
	return out, nil
}

// Validate reports the first problem found in the series: unsorted
// samples, negative offsets, or non-finite values. A nil return means
// the series is well-formed.
func (s *Series) Validate() error {
	var prev time.Duration = -1
	for i, x := range s.vals {
		off := s.OffsetAt(i)
		if off < 0 {
			return fmt.Errorf("telemetry: %s node %d sample %d: negative offset %v",
				s.Metric, s.Node, i, off)
		}
		if off < prev {
			return fmt.Errorf("telemetry: %s node %d sample %d: out of order", s.Metric, s.Node, i)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("telemetry: %s node %d sample %d: non-finite value",
				s.Metric, s.Node, i)
		}
		prev = off
	}
	return nil
}
