package ldms

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// rampTelemetry builds 1 Hz telemetry of the metrics on nodes
// [0, nodes) from t=0 through duration; each value encodes metric,
// node and time.
func rampTelemetry(metrics []string, nodes int, duration time.Duration) *telemetry.NodeSet {
	ns := telemetry.NewNodeSet()
	ticks := int(duration/time.Second) + 1
	for node := 0; node < nodes; node++ {
		for _, m := range metrics {
			s := telemetry.NewSeries(m, node, ticks)
			for i := 0; i < ticks; i++ {
				at := time.Duration(i) * time.Second
				s.Append(at, float64(len(m)*1000+node*100)+at.Seconds())
			}
			ns.Put(s)
		}
	}
	return ns
}

func TestCSVRoundTrip(t *testing.T) {
	ns := rampTelemetry([]string{"m1", "m2"}, 1, 5*time.Second)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNodeCSV(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"m1", "m2"} {
		a, b := ns.Get(0, m), got.Get(0, m)
		if a.Len() != b.Len() {
			t.Fatalf("metric %s length %d vs %d", m, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("metric %s sample %d: %+v vs %+v", m, i, a.At(i), b.At(i))
			}
		}
	}
}

func TestCSVHeaderFormat(t *testing.T) {
	ns := rampTelemetry([]string{"zz", "aa"}, 1, time.Second)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "#Time,aa,zz" {
		t.Errorf("header = %q (metrics must be alphabetical)", first)
	}
}

func TestReadNodeCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"time,m\n1,2\n",          // wrong header tag
		"#Time\n",                // no metrics
		"#Time,m\nx,2\n",         // bad time
		"#Time,m\n1.0,notanum\n", // bad value
		"#Time,m\n1.0,2.0,3.0\n", // too many fields (csv lib catches)
	}
	for i, in := range cases {
		if _, err := ReadNodeCSV(strings.NewReader(in), 0); err == nil {
			t.Errorf("case %d should fail: %q", i, in)
		}
	}
}

func TestWriteNodeCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, telemetry.NewNodeSet(), 0); err == nil {
		t.Error("empty node set should fail")
	}
	ns := telemetry.NewNodeSet()
	sr := telemetry.NewSeries("m", 1, 1)
	sr.Append(0, 1)
	ns.Put(sr)
	if err := WriteNodeCSV(&buf, ns, 0); err == nil {
		t.Error("missing node should fail")
	}
}

// TestCSVRoundTripFractionalOffsets is the regression test for the
// offset-precision drift: the writer used to format offsets with one
// decimal while the reader truncated seconds*1e9, so 0.1 s came back
// as 99999999 ns and sub-decisecond offsets collided. Full-precision
// offsets plus nanosecond rounding must make write→read→write a fixed
// point, byte for byte.
func TestCSVRoundTripFractionalOffsets(t *testing.T) {
	ns := telemetry.NewNodeSet()
	s := telemetry.NewSeries("m", 0, 0)
	offsets := []time.Duration{
		0,
		100 * time.Millisecond, // 0.1 s: the historical drift case
		250 * time.Millisecond,
		time.Second + 1, // 1.000000001 s: sub-decisecond resolution
		2 * time.Second,
	}
	for i, off := range offsets {
		s.Append(off, float64(i)+0.125)
	}
	ns.Put(s)

	var first bytes.Buffer
	if err := WriteNodeCSV(&first, ns, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNodeCSV(bytes.NewReader(first.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Get(0, "m")
	if got.Len() != len(offsets) {
		t.Fatalf("round-trip length = %d, want %d", got.Len(), len(offsets))
	}
	for i, off := range offsets {
		if sm := got.At(i); sm.Offset != off || sm.Value != float64(i)+0.125 {
			t.Errorf("sample %d = %+v, want offset %v value %v", i, sm, off, float64(i)+0.125)
		}
	}
	var second bytes.Buffer
	if err := WriteNodeCSV(&second, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write→read→write is not a fixed point:\nfirst:  %q\nsecond: %q",
			first.String(), second.String())
	}
}

// TestReadNodeCSVMatchesStd pins the byte-oriented reader to the
// encoding/csv baseline on realistic collector output.
func TestReadNodeCSVMatchesStd(t *testing.T) {
	ns := rampTelemetry([]string{"m1", "m2", "m3"}, 1, 120*time.Second)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	a, err := ReadNodeCSV(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadNodeCSVStd(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range a.Metrics() {
		sa, sb := a.Get(0, m), b.Get(0, m)
		if sa.Len() != sb.Len() {
			t.Fatalf("metric %s length %d vs %d", m, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			if sa.At(i) != sb.At(i) {
				t.Fatalf("metric %s sample %d: %+v vs %+v", m, i, sa.At(i), sb.At(i))
			}
		}
	}
}

func TestReadExecutionCSVRoundTrip(t *testing.T) {
	ns := rampTelemetry([]string{"aa", "bbb"}, 3, 30*time.Second)
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := ReadExecutionCSV(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Nodes()) != 3 {
			t.Fatalf("workers=%d nodes = %v", workers, got.Nodes())
		}
		for _, node := range ns.Nodes() {
			for _, m := range ns.Metrics() {
				a, b := ns.Get(node, m), got.Get(node, m)
				if b == nil || a.Len() != b.Len() {
					t.Fatalf("workers=%d node %d metric %s missing or wrong length", workers, node, m)
				}
				for i := 0; i < a.Len(); i++ {
					if a.At(i) != b.At(i) {
						t.Fatalf("node %d metric %s sample %d: %+v vs %+v",
							node, m, i, a.At(i), b.At(i))
					}
				}
			}
		}
	}
	if _, err := ReadExecutionCSV(strings.NewReader("#Time,m\n0,1\n"), 0); err == nil {
		t.Error("execution CSV without node separators should fail")
	}
	if _, err := ReadExecutionCSV(strings.NewReader(""), 0); err == nil {
		t.Error("empty execution CSV should fail")
	}
}

func TestWriteExecutionCSV(t *testing.T) {
	ns := rampTelemetry([]string{"m"}, 2, 2*time.Second)
	var buf bytes.Buffer
	if err := WriteExecutionCSV(&buf, ns); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# node 0") || !strings.Contains(out, "# node 1") {
		t.Errorf("execution CSV missing node separators:\n%s", out)
	}
}
