package tsdb

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// contractCols is one series' columns in arrival order.
type contractCols struct {
	offs []time.Duration
	vals []float64
}

// contractShapes returns the offset sequences the memtable must carry
// unchanged: a clean grid, a series that leaves the grid partway, one
// that is off the grid from its first sample, equal offsets, an
// out-of-order permutation whose sorted offsets land back on the grid,
// and out-of-order offsets with ties. Values are distinct, so a sort
// that is not stable shows.
func contractShapes(rng *rand.Rand) map[seriesKey]*contractCols {
	const n = 40
	shapes := map[seriesKey]func(i int) time.Duration{
		{"grid", 0}: func(i int) time.Duration { return time.Duration(i) * time.Second },
		{"late", 0}: func(i int) time.Duration {
			if i < 17 {
				return time.Duration(i) * time.Second
			}
			return time.Duration(i)*time.Second + 300*time.Millisecond
		},
		{"offgrid", 1}: func(i int) time.Duration { return time.Duration(i)*time.Second + 250*time.Millisecond },
		{"ties", 1}:    func(i int) time.Duration { return time.Duration(i/2) * time.Second },
	}
	out := make(map[seriesKey]*contractCols)
	for k, at := range shapes {
		c := &contractCols{}
		for i := 0; i < n; i++ {
			c.offs = append(c.offs, at(i))
		}
		out[k] = c
	}
	shuffled := &contractCols{}
	for _, i := range rng.Perm(n) {
		shuffled.offs = append(shuffled.offs, time.Duration(i)*time.Second)
	}
	out[seriesKey{"shuffled", 2}] = shuffled
	jitter := &contractCols{}
	for i := 0; i < n; i++ {
		jitter.offs = append(jitter.offs, time.Duration(rng.Intn(n/2))*500*time.Millisecond)
	}
	out[seriesKey{"jitter", 2}] = jitter
	for _, k := range sortedKeys(out) {
		c := out[k]
		for i := range c.offs {
			c.vals = append(c.vals, float64(i)+rng.Float64())
		}
	}
	return out
}

func sortedKeys(m map[seriesKey]*contractCols) []seriesKey {
	var keys []seriesKey
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b seriesKey) int {
		return cmp.Or(cmp.Compare(a.metric, b.metric), cmp.Compare(a.node, b.node))
	})
	return keys
}

// contractRun is one (metric, node) run of a batch.
type contractRun struct {
	key  seriesKey
	offs []time.Duration
	vals []float64
}

// contractBatches splits every series into runs of 1–7 samples and
// deals them into multi-series batches in a seeded order, each series'
// runs staying in arrival order.
func contractBatches(rng *rand.Rand, fed map[seriesKey]*contractCols) [][]contractRun {
	pending := make(map[seriesKey][]contractRun)
	keys := sortedKeys(fed)
	for _, k := range keys {
		c := fed[k]
		for base := 0; base < len(c.offs); {
			end := min(base+1+rng.Intn(7), len(c.offs))
			pending[k] = append(pending[k], contractRun{k, c.offs[base:end], c.vals[base:end]})
			base = end
		}
	}
	var batches [][]contractRun
	for {
		var batch []contractRun
		for _, i := range rng.Perm(len(keys)) {
			k := keys[i]
			if len(pending[k]) == 0 || rng.Intn(3) == 0 {
				continue
			}
			batch = append(batch, pending[k][0])
			pending[k] = pending[k][1:]
		}
		if len(batch) > 0 {
			batches = append(batches, batch)
			continue
		}
		done := true
		for _, k := range keys {
			done = done && len(pending[k]) == 0
		}
		if done {
			return batches
		}
	}
}

func feedContractBatches(t *testing.T, st *Store, job string, batches [][]contractRun) {
	t.Helper()
	for _, batch := range batches {
		for _, r := range batch {
			if err := st.Append(job, r.key.metric, r.key.node, r.offs, r.vals); err != nil {
				t.Fatalf("Append %s[%d]: %v", r.key.metric, r.key.node, err)
			}
		}
		if err := st.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
}

// fedCols is every series' columns as batches feed them.
func fedCols(batches [][]contractRun) map[seriesKey]*contractCols {
	out := make(map[seriesKey]*contractCols)
	for _, batch := range batches {
		for _, r := range batch {
			c := out[r.key]
			if c == nil {
				c = &contractCols{}
				out[r.key] = c
			}
			c.offs = append(c.offs, r.offs...)
			c.vals = append(c.vals, r.vals...)
		}
	}
	return out
}

func sameCols(t *testing.T, where string, k seriesKey, gotOffs []time.Duration, gotVals []float64, want *contractCols) {
	t.Helper()
	if len(gotOffs) != len(want.offs) || len(gotVals) != len(want.vals) {
		t.Fatalf("%s: %s[%d] has %d offsets / %d values, want %d", where, k.metric, k.node, len(gotOffs), len(gotVals), len(want.offs))
	}
	for i := range want.offs {
		if gotOffs[i] != want.offs[i] || math.Float64bits(gotVals[i]) != math.Float64bits(want.vals[i]) {
			t.Fatalf("%s: %s[%d] sample %d = (%v, %v), want (%v, %v)",
				where, k.metric, k.node, i, gotOffs[i], gotVals[i], want.offs[i], want.vals[i])
		}
	}
}

// checkLiveCols asserts Live() reports exactly the fed columns of job,
// in arrival order.
func checkLiveCols(t *testing.T, where string, st *Store, job string, want map[seriesKey]*contractCols) {
	t.Helper()
	for _, lj := range st.Live() {
		if lj.ID != job {
			continue
		}
		if len(lj.Series) != len(want) {
			t.Fatalf("%s: %d live series, want %d", where, len(lj.Series), len(want))
		}
		for _, sr := range lj.Series {
			k := seriesKey{sr.Metric, sr.Node}
			w := want[k]
			if w == nil {
				t.Fatalf("%s: unexpected live series %s[%d]", where, k.metric, k.node)
			}
			sameCols(t, where, k, sr.Offsets, sr.Values, w)
		}
		return
	}
	t.Fatalf("%s: job %q not live", where, job)
}

// stableSorted is the stable sort of c by offset.
func stableSorted(c *contractCols) *contractCols {
	idx := make([]int, len(c.offs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(c.offs[a], c.offs[b]) })
	out := &contractCols{}
	for _, i := range idx {
		out.offs = append(out.offs, c.offs[i])
		out.vals = append(out.vals, c.vals[i])
	}
	return out
}

// checkStoredCols asserts the flushed execution holds the stable sort
// of every fed series, and that a series whose sorted offsets sit on
// the 1 Hz grid was written without an offset column.
func checkStoredCols(t *testing.T, where string, st *Store, job string, fed map[seriesKey]*contractCols) {
	t.Helper()
	ns, err := st.ExecutionSeries(job)
	if err != nil {
		t.Fatalf("%s: ExecutionSeries: %v", where, err)
	}
	if ns.NumSeries() != len(fed) {
		t.Fatalf("%s: %d stored series, want %d", where, ns.NumSeries(), len(fed))
	}
	for k, c := range fed {
		s := ns.Get(k.node, k.metric)
		if s == nil {
			t.Fatalf("%s: stored series %s[%d] missing", where, k.metric, k.node)
		}
		offs := make([]time.Duration, s.Len())
		vals := make([]float64, s.Len())
		for i := range offs {
			offs[i], vals[i] = s.OffsetAt(i), s.ValueAt(i)
		}
		sameCols(t, where, k, offs, vals, stableSorted(c))
	}
	var exec *segExec
	for _, g := range st.segs {
		if e := g.exec(job); e != nil {
			exec = e
		}
	}
	if exec == nil {
		t.Fatalf("%s: no segment holds %q", where, job)
	}
	for _, ss := range exec.Series {
		sorted := stableSorted(fed[seriesKey{ss.Metric, ss.Node}])
		grid := true
		for i, off := range sorted.offs {
			grid = grid && off == time.Duration(i)*telemetry.DefaultPeriod
		}
		if grid != (ss.OffOff == -1) {
			t.Errorf("%s: %s[%d] on grid after sort = %v, but footer OffOff = %d", where, ss.Metric, ss.Node, grid, ss.OffOff)
		}
	}
}

// TestSeriesContract pins what the memtable promises about a series,
// whatever shape its offsets take: Live reports the fed columns in
// arrival order — before and after a restart, and after a WAL
// compaction that another job's flush triggers — and the flushed
// execution holds their stable sort, with no offset column for a
// series whose sorted offsets land on the 1 Hz grid.
func TestSeriesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fed := contractShapes(rng)
	batches := contractBatches(rng, fed)
	half := len(batches) / 2
	const job = "contract"

	dir := t.TempDir()
	open := func() *Store {
		st, err := OpenOptions(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	if err := st.Register(job, 3); err != nil {
		t.Fatal(err)
	}
	feedContractBatches(t, st, job, batches[:half])
	checkLiveCols(t, "live", st, job, fedCols(batches[:half]))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	checkLiveCols(t, "replayed", st, job, fedCols(batches[:half]))

	// Appends after a replay continue the replayed columns.
	feedContractBatches(t, st, job, batches[half:])
	checkLiveCols(t, "live after replay", st, job, fed)

	// Another job's flush compacts the WAL down to the live jobs.
	if err := st.Register("other", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("other", "m", 0, []time.Duration{0, time.Second}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish("other", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	checkLiveCols(t, "after compaction", st, job, fed)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	checkLiveCols(t, "compacted and replayed", st, job, fed)

	if err := st.Finish(job, "lbl"); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	checkStoredCols(t, "flushed", st, job, fed)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open()
	defer st.Close()
	checkStoredCols(t, "flushed and reopened", st, job, fed)
}
