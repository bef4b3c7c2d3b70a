package ldms

import (
	"bytes"
	"testing"
	"time"
)

// ingestFixture renders a realistic per-node CSV: 50 metrics, 600
// ticks — one node of a ten-minute execution at the 1 Hz collection
// cadence.
func ingestFixture(t testing.TB) []byte {
	t.Helper()
	metrics := make([]string, 50)
	for i := range metrics {
		metrics[i] = "metric_" + string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	ns := rampTelemetry(metrics, 1, 599*time.Second)
	var buf bytes.Buffer
	if err := WriteNodeCSV(&buf, ns, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestAllocRatio pins the acceptance criterion that the
// byte-oriented reader allocates at least 5x less than the
// encoding/csv baseline on the same input. The baseline allocates a
// []string plus one string per cell on every row; the byte reader's
// allocations are the series storage itself plus O(metrics) setup.
func TestIngestAllocRatio(t *testing.T) {
	data := ingestFixture(t)
	newAllocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadNodeCSV(bytes.NewReader(data), 0); err != nil {
			t.Fatal(err)
		}
	})
	stdAllocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadNodeCSVStd(bytes.NewReader(data), 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("byte reader: %.0f allocs/op, encoding/csv baseline: %.0f allocs/op (%.1fx)",
		newAllocs, stdAllocs, stdAllocs/newAllocs)
	if newAllocs*5 > stdAllocs {
		t.Errorf("byte reader allocates %.0f/op vs baseline %.0f/op — want at least 5x fewer",
			newAllocs, stdAllocs)
	}
}
