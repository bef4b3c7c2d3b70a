package wire

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestRunRoundTrip(t *testing.T) {
	offs := []time.Duration{0, time.Second, 3 * time.Second, 2 * time.Second} // unsorted on purpose
	vals := []float64{1.5, -2.25, math.Inf(1), math.Copysign(0, -1)}
	payload := AppendRun(nil, "job-1", "nr_mapped_vmstat", 3, offs, vals)
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != TypeRun || rec.Job != "job-1" || rec.Metric != "nr_mapped_vmstat" || rec.Node != 3 {
		t.Fatalf("header round-trip: %+v", rec)
	}
	for i := range offs {
		if rec.Offs[i] != offs[i] {
			t.Errorf("offset %d: %v != %v", i, rec.Offs[i], offs[i])
		}
		if math.Float64bits(rec.Vals[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d not bit-identical: %v != %v", i, rec.Vals[i], vals[i])
		}
	}
}

func TestLifecycleRoundTrip(t *testing.T) {
	for _, c := range []struct {
		payload []byte
		check   func(Record) bool
	}{
		{AppendRegister(nil, "j", 4), func(r Record) bool { return r.Type == TypeRegister && r.Job == "j" && r.Nodes == 4 }},
		{AppendFinish(nil, "j", 9, "ft_X"), func(r Record) bool { return r.Type == TypeFinish && r.Seq == 9 && r.Label == "ft_X" }},
		{AppendDrop(nil, "j"), func(r Record) bool { return r.Type == TypeDrop && r.Job == "j" }},
	} {
		rec, err := DecodeRecord(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		if !c.check(rec) {
			t.Errorf("round-trip mismatch: %+v", rec)
		}
	}
}

func TestDecodeRunIntoReusesScratch(t *testing.T) {
	payload := AppendRun(nil, "j", "m", 0, []time.Duration{time.Second}, []float64{7})
	offs := make([]time.Duration, 0, 8)
	vals := make([]float64, 0, 8)
	rec, err := DecodeRunInto(payload, offs[:0], vals[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &rec.Offs[0] != &offs[:1][0] || &rec.Vals[0] != &vals[:1][0] {
		t.Error("columns did not land in the caller's scratch")
	}
	if rec.Offs[0] != time.Second || rec.Vals[0] != 7 {
		t.Errorf("decoded %v %v", rec.Offs, rec.Vals)
	}
	if _, err := DecodeRunInto(AppendDrop(nil, "j"), nil, nil); err == nil {
		t.Error("non-run record accepted by DecodeRunInto")
	}
}

func TestWalkFramesStopsAtCorruption(t *testing.T) {
	var data []byte
	data = AppendFrame(data, AppendRegister(nil, "a", 1))
	goodLen := int64(len(data))
	data = AppendFrame(data, AppendRegister(nil, "b", 1))
	data[goodLen+FrameHeaderLen] ^= 0xff // corrupt second payload

	var seen int
	good, frames, err := WalkFrames(data, func([]byte) error { seen++; return nil })
	if err == nil {
		t.Fatal("corruption not reported")
	}
	if good != goodLen || frames != 1 || seen != 1 {
		t.Fatalf("good=%d frames=%d seen=%d, want %d/1/1", good, frames, seen, goodLen)
	}

	// Torn tail: header promising more bytes than remain.
	torn := append(append([]byte(nil), data[:goodLen]...), 0xff, 0xff)
	good, _, err = WalkFrames(torn, func([]byte) error { return nil })
	if err == nil || good != goodLen {
		t.Fatalf("torn tail: good=%d err=%v", good, err)
	}

	// An apply error reports good at the failing frame's start.
	good, _, err = WalkFrames(data[:goodLen], func([]byte) error { return errTest })
	if err != errTest || good != 0 {
		t.Fatalf("apply error: good=%d err=%v", good, err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test" }

// testRun is one run of a job-runs round-trip case.
type testRun struct {
	metric string
	node   int
	offs   []time.Duration
	vals   []float64
}

// encodeJobRuns frames runs as one job-runs payload.
func encodeJobRuns(job string, runs []testRun) []byte {
	var enc JobRuns
	for _, r := range runs {
		enc.Add(r.metric, r.node, r.offs, r.vals)
	}
	return enc.AppendPayload(nil, job)
}

// checkDecoded compares decoded runs with the encoded ones by metric,
// node, offsets and value bits.
func checkDecoded(t *testing.T, what string, got []Run, want []testRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs decoded, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Metric != w.metric || g.Node != w.node || len(g.Offsets) != len(w.offs) || len(g.Values) != len(w.vals) {
			t.Fatalf("%s run %d: %s[%d] × %d/%d, want %s[%d] × %d", what, i, g.Metric, g.Node, len(g.Offsets), len(g.Values), w.metric, w.node, len(w.vals))
		}
		for k := range w.offs {
			if g.Offsets[k] != w.offs[k] {
				t.Fatalf("%s run %d offset %d: %d, want %d", what, i, k, g.Offsets[k], w.offs[k])
			}
			if math.Float64bits(g.Values[k]) != math.Float64bits(w.vals[k]) {
				t.Fatalf("%s run %d value %d: bits %#x, want %#x", what, i, k, math.Float64bits(g.Values[k]), math.Float64bits(w.vals[k]))
			}
		}
	}
}

// TestJobRunsRoundTripProperty encodes seeded job-runs records over
// offsets on a 1 s, 1 ms and 1 ns grid, negative offsets, offsets near
// ±2^63 and empty runs, with values that are -0, subnormal, infinite,
// NaN-free but otherwise arbitrary bit patterns, and requires the
// decoders to return every offset and value bit, and the unit to be
// the largest power of ten dividing every offset.
func TestJobRunsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	metrics := []string{"nr_mapped_vmstat", "cpu", "", "Committed_AS_meminfo"}
	specials := []float64{math.Copysign(0, -1), 0, 5e-324, -2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, math.Inf(-1), 6010.123456789012, 1 + 0x1p-52}
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) {
				return v
			}
		}
	}
	units := []time.Duration{time.Second, time.Millisecond, 1, 100 * time.Microsecond}
	for trial := 0; trial < 2000; trial++ {
		var runs []testRun
		unit := units[rng.Intn(len(units))]
		for r := rng.Intn(6); r >= 0; r-- {
			run := testRun{metric: metrics[rng.Intn(len(metrics))], node: rng.Intn(1 << 20)}
			n := rng.Intn(5) // 0 is an empty run
			for k := 0; k < n; k++ {
				var off time.Duration
				switch rng.Intn(4) {
				case 0: // near ±2^63, on the unit's grid
					off = time.Duration(math.MaxInt64) - time.Duration(rng.Int63n(1<<20))
					if rng.Intn(2) == 0 {
						off = -off - 1
					}
					off = off / unit * unit
				case 1:
					off = -time.Duration(rng.Int63n(1<<30)) * unit
				default:
					off = time.Duration(rng.Int63n(1<<30)) * unit
				}
				run.offs = append(run.offs, off)
				run.vals = append(run.vals, value())
			}
			runs = append(runs, run)
		}
		payload := encodeJobRuns("job-x", runs)

		// The unit byte follows the type byte and the job.
		exp := int(payload[1+1+len("job-x")])
		want := maxUnitExp
		for _, r := range runs {
			for _, off := range r.offs {
				for want > 0 && int64(off)%pow10[want] != 0 {
					want--
				}
			}
		}
		if exp != want {
			t.Fatalf("trial %d: unit 10^%d ns, want 10^%d", trial, exp, want)
		}

		rec, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("trial %d: DecodeRecord: %v", trial, err)
		}
		if rec.Type != TypeJobRuns || rec.Job != "job-x" {
			t.Fatalf("trial %d: header %+v", trial, rec)
		}
		checkDecoded(t, "DecodeRecord", rec.Runs, runs)

		var a Arena
		a.Offs = make([]time.Duration, 0, 1) // force arena growth mid-record
		job, got, err := a.Decode(payload)
		if err != nil || job != "job-x" {
			t.Fatalf("trial %d: Arena.Decode: %q %v", trial, job, err)
		}
		checkDecoded(t, "Arena.Decode", got, runs)
	}
}

// TestJobRunsTableShared pins that the encoder names each metric once
// and that the arena reuses the previous record's table strings.
func TestJobRunsTableShared(t *testing.T) {
	runs := []testRun{
		{"m0", 0, []time.Duration{149 * time.Second}, []float64{1}},
		{"m1", 0, []time.Duration{149 * time.Second}, []float64{2}},
		{"m0", 1, []time.Duration{149 * time.Second}, []float64{3}},
		{"m1", 1, []time.Duration{149 * time.Second}, []float64{4}},
	}
	payload := encodeJobRuns("job-17", runs)
	// type, job, unit, table of 2, then 4 runs of index, node, count,
	// one offset byte (two for the first) and 8 value bytes.
	if want := 1 + 7 + 1 + 1 + 2*3 + 4*(3+1+8) + 1; len(payload) != want {
		t.Errorf("payload %d bytes, want %d", len(payload), want)
	}
	var a Arena
	if _, _, err := a.Decode(payload); err != nil {
		t.Fatal(err)
	}
	first := a.Runs[0].Metric
	a.Reset()
	if allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		if _, _, err := a.Decode(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 { // the job ID
		t.Errorf("warmed Arena.Decode allocates %v/op, want 1", allocs)
	}
	if unsafe.StringData(a.Runs[0].Metric) != unsafe.StringData(first) {
		t.Error("table string not reused across records")
	}
	checkDecoded(t, "warmed", a.Runs, runs)
}

// TestArenaDecodesBothRunRecords decodes a TypeRun and a job-runs
// record into one arena; lifecycle records are refused.
func TestArenaDecodesBothRunRecords(t *testing.T) {
	var a Arena
	job, runs, err := a.Decode(AppendRun(nil, "old", "m", 2, []time.Duration{time.Second, 3 * time.Millisecond}, []float64{1, 2}))
	if err != nil || job != "old" {
		t.Fatalf("TypeRun: %q %v", job, err)
	}
	checkDecoded(t, "TypeRun", runs, []testRun{{"m", 2, []time.Duration{time.Second, 3 * time.Millisecond}, []float64{1, 2}}})
	want := []testRun{{"n", 0, []time.Duration{5 * time.Second}, []float64{3}}}
	job, runs, err = a.Decode(encodeJobRuns("new", want))
	if err != nil || job != "new" {
		t.Fatalf("job-runs: %q %v", job, err)
	}
	checkDecoded(t, "job-runs", runs, want)
	if len(a.Runs) != 2 {
		t.Errorf("arena holds %d runs, want 2", len(a.Runs))
	}
	if _, _, err := a.Decode(AppendDrop(nil, "j")); err == nil {
		t.Error("drop record accepted as runs")
	}
	if _, err := DecodeRunInto(encodeJobRuns("new", want), nil, nil); err == nil {
		t.Error("DecodeRunInto accepted a job-runs record")
	}
}

// TestJobRunsMalformed feeds the decoders job-runs payloads that are
// wrong in one field each; every one must be refused.
func TestJobRunsMalformed(t *testing.T) {
	head := func(exp, table uint64, names ...string) []byte {
		b := AppendString([]byte{TypeJobRuns}, "j")
		b = AppendUvarint(b, exp)
		b = AppendUvarint(b, table)
		for _, n := range names {
			b = AppendString(b, n)
		}
		return b
	}
	run := func(b []byte, m, node, count uint64, tail ...byte) []byte {
		b = AppendUvarint(b, m)
		b = AppendUvarint(b, node)
		b = AppendUvarint(b, count)
		return append(b, tail...)
	}
	value := []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f} // 1.0
	good := run(head(9, 1, "m"), 0, 0, 1, append([]byte{2}, value...)...)
	if _, _, err := new(Arena).Decode(good); err != nil {
		t.Fatalf("well-formed payload refused: %v", err)
	}
	// The count and table-length checks must refuse before anything
	// is read or allocated, so those cases name the error they expect.
	for name, c := range map[string]struct {
		payload []byte
		want    string
	}{
		"metric index past the table":  {run(head(9, 1, "m"), 1, 0, 1, append([]byte{2}, value...)...), "metric index"},
		"count past the payload":       {run(head(9, 1, "m"), 0, 0, 2, append([]byte{2}, value...)...), "implausible run length"},
		"huge count":                   {run(head(9, 1, "m"), 0, 0, 1<<40, append([]byte{2}, value...)...), "implausible run length"},
		"unit past one second":         {run(head(10, 1, "m"), 0, 0, 1, append([]byte{2}, value...)...), "unit"},
		"table past the payload":       {head(9, 5, "m"), "implausible metric table"},
		"truncated table name":         {append(head(9, 1), 9, 'm'), ""},
		"node out of range":            {run(head(9, 1, "m"), 0, 1<<21, 1, append([]byte{2}, value...)...), "node"},
		"truncated values":             {good[:len(good)-1], ""},
		"offset overflows in the unit": {run(head(9, 1, "m"), 0, 0, 1, append(AppendUvarint(nil, Zigzag(math.MaxInt64/int64(time.Second)+1)), value...)...), "overflows"},
		"trailing run header":          {append(append([]byte(nil), good...), 0), ""},
	} {
		_, _, err := new(Arena).Decode(c.payload)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Arena.Decode error %v, want one naming %q", name, err, c.want)
		}
		if _, err := DecodeRecord(c.payload); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: DecodeRecord error %v, want one naming %q", name, err, c.want)
		}
	}
}

// TestJobRunsManyMetrics cycles through more metric names than the
// encoder's table scan covers: the record repeats names in its table
// instead of scanning all of it, and still decodes to the same runs.
func TestJobRunsManyMetrics(t *testing.T) {
	var runs []testRun
	for k := 0; k < 3*(metricScan+4); k++ {
		name := string(rune('A'+k%(metricScan+4))) + "_metric"
		runs = append(runs, testRun{name, k % 3, []time.Duration{time.Duration(k) * time.Second}, []float64{float64(k)}})
	}
	payload := encodeJobRuns("many", runs)
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, "DecodeRecord", rec.Runs, runs)
}
