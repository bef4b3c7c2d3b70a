package client

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/wire"
)

// allocRuns is one ingest batch: 2 nodes × 64 in-window samples.
func allocRuns() []monitor.RunBatch {
	runs := make([]monitor.Run, 2)
	for node := 0; node < 2; node++ {
		offs := make([]time.Duration, 64)
		vals := make([]float64, 64)
		for k := range offs {
			offs[k] = time.Duration(60+k%60) * time.Second
			vals[k] = 6000 + float64(k)
		}
		runs[node] = monitor.Run{Metric: apps.HeadlineMetric, Node: node, Offsets: offs, Values: vals}
	}
	return []monitor.RunBatch{{JobID: "alloc", Runs: runs}}
}

// TestClientIngestAllocRatio pins the headline property of the binary
// columnar encoding: client-to-stream, it allocates at least 2x less
// than the JSON path (BenchmarkClientIngest* in the root package
// report the absolute numbers — ~2.6x fewer allocs and ~7x less
// wall-clock on the 1-CPU container).
func TestClientIngestAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement over live HTTP")
	}
	measure := func(mode BinaryMode) float64 {
		_, c := newFixture(t, WithBinaryIngest(mode))
		ctx := context.Background()
		if err := c.Register(ctx, "alloc", 2); err != nil {
			t.Fatal(err)
		}
		batches := allocRuns()
		// Warm: connection establishment, pool/arena sizing.
		for i := 0; i < 3; i++ {
			if _, err := c.IngestRuns(ctx, batches); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.IngestRuns(ctx, batches); err != nil {
				t.Fatal(err)
			}
		})
	}
	jsonAllocs := measure(BinaryNever)
	binAllocs := measure(BinaryAlways)
	t.Logf("allocs/op: json %.0f, binary %.0f (%.2fx)", jsonAllocs, binAllocs, jsonAllocs/binAllocs)
	if binAllocs*2 > jsonAllocs {
		t.Errorf("binary ingest allocates %.0f/op vs JSON %.0f/op — less than the pinned 2x margin", binAllocs, jsonAllocs)
	}
}

// ingestShapeBatches is one call of the benchmark's ingest shape: 16
// jobs × 4 nodes × the 4 forwarded metrics, one tick at 149 s.
func ingestShapeBatches() []monitor.RunBatch {
	metrics := []string{apps.HeadlineMetric, "nr_active_anon_vmstat", "Committed_AS_meminfo", "AMO_PKTS_metric_set_nic"}
	tick := []time.Duration{149 * time.Second}
	batches := make([]monitor.RunBatch, 16)
	for j := range batches {
		b := monitor.RunBatch{JobID: fmt.Sprintf("ingest-0-%06d", 123+j)}
		for node := 0; node < 4; node++ {
			for m, metric := range metrics {
				b.Runs = append(b.Runs, monitor.Run{Metric: metric, Node: node, Offsets: tick, Values: []float64{6000 + float64(j*16+node*4+m)/7}})
			}
		}
		batches[j] = b
	}
	return batches
}

// TestBinaryEncodeIngestShape pins the client's binary body for the
// benchmark's ingest call: one job-runs record per job, at most a
// third of the bytes the same runs cost as TypeRun records, decoding
// back to the same runs, and encoded without allocating once warm.
func TestBinaryEncodeIngestShape(t *testing.T) {
	batches := ingestShapeBatches()
	var enc encBuf
	body := enc.encode(batches)
	typeRun, samples := 0, 0
	for _, b := range batches {
		for _, run := range b.Runs {
			typeRun += len(wire.AppendFrame(nil, wire.AppendRun(nil, b.JobID, run.Metric, run.Node, run.Offsets, run.Values)))
			samples += len(run.Values)
		}
	}
	t.Logf("body: %d B for %d samples (%.1f B/sample), TypeRun %.1f B/sample", len(body), samples, float64(len(body))/float64(samples), float64(typeRun)/float64(samples))
	if 3*len(body) > typeRun {
		t.Errorf("body %d B, more than a third of TypeRun's %d B", len(body), typeRun)
	}
	var a wire.Arena
	records := 0
	if _, _, err := wire.WalkFrames(body, func(payload []byte) error {
		job, runs, err := a.Decode(payload)
		if err != nil {
			return err
		}
		want := batches[records]
		if job != want.JobID || len(runs) != len(want.Runs) {
			t.Fatalf("record %d: %s with %d runs, want %s with %d", records, job, len(runs), want.JobID, len(want.Runs))
		}
		for i, r := range runs {
			w := want.Runs[i]
			if r.Metric != w.Metric || r.Node != w.Node || r.Offsets[0] != w.Offsets[0] || math.Float64bits(r.Values[0]) != math.Float64bits(w.Values[0]) {
				t.Fatalf("record %d run %d: %+v, want %+v", records, i, r, w)
			}
		}
		records++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != len(batches) {
		t.Errorf("%d records, want one per job (%d)", records, len(batches))
	}
	if allocs := testing.AllocsPerRun(100, func() { enc.encode(batches) }); allocs != 0 {
		t.Errorf("warmed binary encode allocates %v/op, want 0", allocs)
	}
}
