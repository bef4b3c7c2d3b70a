package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/wire"
)

// typeRunBodyRuns is the telemetry TestTypeRunBodyMatchesJSON sends:
// two jobs, each split over several runs and metrics, interleaved the
// way a multi-job forwarder emits them, with values that need every
// mantissa bit and offsets off the 1 Hz grid.
func typeRunBodyRuns() []monitor.RunBatch {
	values := []float64{6010.123456789012, 6009.999999999999, 6010.5e-3 * 1e3, 6011.000000000001, math.Copysign(0, -1), 5e-324}
	mk := func(metric string, node, from, to int, step time.Duration) monitor.Run {
		run := monitor.Run{Metric: metric, Node: node}
		for k, off := 0, time.Duration(from)*time.Second; off <= time.Duration(to)*time.Second; k, off = k+1, off+step {
			run.Offsets = append(run.Offsets, off)
			run.Values = append(run.Values, values[(k+node)%len(values)])
		}
		return run
	}
	return []monitor.RunBatch{
		{JobID: "a", Runs: []monitor.Run{mk(apps.HeadlineMetric, 0, 0, 62, time.Second), mk(apps.HeadlineMetric, 1, 0, 125, time.Second)}},
		{JobID: "b", Runs: []monitor.Run{mk(apps.HeadlineMetric, 0, 0, 125, time.Second), mk("aux_metric", 1, 3, 9, 250*time.Millisecond)}},
		{JobID: "a", Runs: []monitor.Run{mk("aux_metric", 0, 1, 4, 1500*time.Millisecond), mk(apps.HeadlineMetric, 0, 63, 125, time.Second)}},
		{JobID: "b", Runs: []monitor.Run{mk(apps.HeadlineMetric, 1, 0, 125, time.Second)}},
	}
}

// TestTypeRunBodyMatchesJSON pins the binary body every SDK released
// so far sends — one TypeRun frame per (job, metric, node) run — as
// an accepted input: it must leave the same recognition answer and
// the same stored columns, to the bit, as the same samples sent as
// JSON.
func TestTypeRunBodyMatchesJSON(t *testing.T) {
	batches := typeRunBodyRuns()
	var body []byte
	var rows []sampleBatch
	for _, b := range batches {
		var samples []wireSample
		for _, run := range b.Runs {
			body = wire.AppendFrame(body, wire.AppendRun(nil, b.JobID, run.Metric, run.Node, run.Offsets, run.Values))
			for k := range run.Values {
				samples = append(samples, wireSample{Metric: run.Metric, Node: run.Node, OffsetS: run.Offsets[k].Seconds(), Value: run.Values[k]})
			}
		}
		rows = append(rows, sampleBatch{JobID: b.JobID, Samples: samples})
	}
	postBinary := func(url string) string {
		resp, err := http.Post(url+"/v1/samples", wire.ContentTypeRuns, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("TypeRun body: %s %s", resp.Status, raw)
		}
		return string(raw)
	}
	postJSON := func(url string) string {
		raw, _ := json.Marshal(map[string]any{"batches": rows})
		resp, err := http.Post(url+"/v1/samples", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("JSON body: %s %s", resp.Status, out)
		}
		return string(out)
	}
	getRaw := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %s", url, resp.Status, raw)
		}
		return string(raw)
	}

	type outcome struct {
		ingest string
		result map[string]string
		series map[string]monitor.SeriesDump
	}
	run := func(send func(string) string) outcome {
		_, ts, _ := storageFixture(t, t.TempDir())
		for _, id := range []string{"a", "b"} {
			if code := doJSON(t, "POST", ts.URL+"/v1/jobs", registerRequest{JobID: id, Nodes: 2}, nil); code != http.StatusCreated {
				t.Fatalf("register %s: %d", id, code)
			}
		}
		out := outcome{ingest: send(ts.URL), result: map[string]string{}, series: map[string]monitor.SeriesDump{}}
		for _, id := range []string{"a", "b"} {
			out.result[id] = getRaw(ts.URL + "/v1/jobs/" + id)
			var dump monitor.SeriesDump
			if err := json.Unmarshal([]byte(getRaw(ts.URL+"/v1/jobs/"+id+"/series")), &dump); err != nil {
				t.Fatal(err)
			}
			out.series[id] = dump
		}
		return out
	}
	bin, js := run(postBinary), run(postJSON)
	if bin.ingest != js.ingest {
		t.Errorf("ingest response: binary %s, JSON %s", bin.ingest, js.ingest)
	}
	for _, id := range []string{"a", "b"} {
		if bin.result[id] != js.result[id] {
			t.Errorf("job %s result:\n binary %s\n JSON   %s", id, bin.result[id], js.result[id])
		}
		bs, jsd := bin.series[id].Series, js.series[id].Series
		if len(bs) != len(jsd) || len(bs) == 0 {
			t.Fatalf("job %s: %d binary series, %d JSON series", id, len(bs), len(jsd))
		}
		for i := range bs {
			b, j := bs[i], jsd[i]
			if b.Metric != j.Metric || b.Node != j.Node || len(b.Values) != len(j.Values) || len(b.OffsetsS) != len(j.OffsetsS) {
				t.Fatalf("job %s series %d: binary %s[%d] × %d, JSON %s[%d] × %d", id, i, b.Metric, b.Node, len(b.Values), j.Metric, j.Node, len(j.Values))
			}
			for k := range b.Values {
				if math.Float64bits(b.Values[k]) != math.Float64bits(j.Values[k]) {
					t.Errorf("job %s %s[%d] value %d: binary %v, JSON %v", id, b.Metric, b.Node, k, b.Values[k], j.Values[k])
				}
			}
			for k := range b.OffsetsS {
				if math.Float64bits(b.OffsetsS[k]) != math.Float64bits(j.OffsetsS[k]) {
					t.Errorf("job %s %s[%d] offset %d: binary %v, JSON %v", id, b.Metric, b.Node, k, b.OffsetsS[k], j.OffsetsS[k])
				}
			}
		}
	}
}

// jobRunsBody frames batches the way the client does: one job-runs
// record per batch.
func jobRunsBody(batches []monitor.RunBatch) []byte {
	var enc wire.JobRuns
	var body []byte
	for _, b := range batches {
		for _, run := range b.Runs {
			enc.Add(run.Metric, run.Node, run.Offsets, run.Values)
		}
		body = enc.AppendFrame(body, b.JobID)
	}
	return body
}

// TestBinaryDecodeAllocsPerJob pins the decode of the benchmark's
// ingest body — 16 jobs × 4 nodes × 4 metrics, one one-sample run
// each — at allocations per job and per metric-table entry, never per
// run.
func TestBinaryDecodeAllocsPerJob(t *testing.T) {
	const jobs, nodes = 16, 4
	metrics := []string{apps.HeadlineMetric, "nr_active_anon_vmstat", "Committed_AS_meminfo", "AMO_PKTS_metric_set_nic"}
	tick := []time.Duration{149 * time.Second}
	batches := make([]monitor.RunBatch, jobs)
	for j := range batches {
		batches[j].JobID = fmt.Sprintf("ingest-0-%06d", 123+j)
		for node := 0; node < nodes; node++ {
			for _, m := range metrics {
				batches[j].Runs = append(batches[j].Runs, monitor.Run{Metric: m, Node: node, Offsets: tick, Values: []float64{6000}})
			}
		}
	}
	d := &binDecoder{body: jobRunsBody(batches)}
	decode := func() {
		if err := d.decode(); err != nil {
			t.Fatal(err)
		}
		if len(d.batches) != jobs || len(d.runs) != jobs*nodes*len(metrics) {
			t.Fatalf("decoded %d batches, %d runs", len(d.batches), len(d.runs))
		}
	}
	decode() // size the arenas
	allocs := testing.AllocsPerRun(50, decode)
	t.Logf("decode: %v allocs/op for %d jobs, %d runs", allocs, jobs, len(d.runs))
	if limit := float64(jobs*(1+len(metrics)) + 4); allocs > limit {
		t.Errorf("decode allocates %v/op, want ≤ %v (per job and table entry, not per run)", allocs, limit)
	}
}

// frame wraps one payload in its CRC frame.
func frame(payload []byte) []byte { return wire.AppendFrame(nil, payload) }

// FuzzBinaryDecode fuzzes the binary ingest body decoder, which parses
// untrusted network bytes. Each input is tried as a body and, so that
// mutations reach the record decoder past the CRC, as the payload of
// one correctly framed record. A body the decoder accepts must hold
// equal-length columns, no more samples than its bytes can carry, and
// re-encode as job-runs records into a body that decodes to the same
// batches, bit for bit.
func FuzzBinaryDecode(f *testing.F) {
	// Small bodies keep the fuzzer's mutations and minimizations cheap.
	ms := time.Millisecond
	batches := []monitor.RunBatch{
		{JobID: "a", Runs: []monitor.Run{
			{Metric: apps.HeadlineMetric, Node: 0, Offsets: []time.Duration{149 * time.Second, 150 * time.Second}, Values: []float64{6010.123456789012, math.Copysign(0, -1)}},
			{Metric: "aux", Node: 1, Offsets: []time.Duration{250 * ms}, Values: []float64{5e-324}},
		}},
		{JobID: "b", Runs: []monitor.Run{{Metric: "aux", Node: 3, Offsets: []time.Duration{-1}, Values: []float64{1}}}},
	}
	var typeRun []byte
	for _, b := range batches {
		for _, run := range b.Runs {
			typeRun = append(typeRun, frame(wire.AppendRun(nil, b.JobID, run.Metric, run.Node, run.Offsets, run.Values))...)
		}
	}
	jobRuns := jobRunsBody(batches)
	f.Add(typeRun)
	f.Add(jobRuns)
	f.Add(append(append([]byte(nil), jobRuns[:len(jobRunsBody(batches[:1]))]...), typeRun...)) // mixed
	f.Add(jobRuns[:len(jobRuns)-3])                                                            // torn
	// Job-runs payloads with a one-entry table and one run: metric
	// index m, node 0, count n, one offset byte and one value.
	payload := func(exp, m, n uint64) []byte {
		b := wire.AppendString([]byte{wire.TypeJobRuns}, "j")
		for _, v := range []uint64{exp, 1} {
			b = wire.AppendUvarint(b, v)
		}
		b = wire.AppendString(b, "m")
		for _, v := range []uint64{m, 0, n, 2} {
			b = wire.AppendUvarint(b, v)
		}
		return append(b, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)
	}
	f.Add(payload(9, 0, 1))  // well-formed
	f.Add(payload(9, 1, 1))  // metric index past the table
	f.Add(payload(9, 0, 2))  // count past the payload
	f.Add(payload(10, 0, 1)) // unit out of range
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBinaryDecode(t, raw)
		checkBinaryDecode(t, frame(raw))
	})
}

// checkBinaryDecode holds one body to FuzzBinaryDecode's invariants.
func checkBinaryDecode(t *testing.T, body []byte) {
	d := &binDecoder{body: body}
	if err := d.decode(); err != nil {
		return
	}
	samples := 0
	for _, b := range d.batches {
		for _, run := range b.Runs {
			if len(run.Offsets) != len(run.Values) {
				t.Fatalf("job %q %s[%d]: %d offsets, %d values", b.JobID, run.Metric, run.Node, len(run.Offsets), len(run.Values))
			}
			samples += len(run.Values)
		}
	}
	if 9*samples > len(body) {
		t.Fatalf("%d samples from %d bytes", samples, len(body))
	}
	again := &binDecoder{body: jobRunsBody(d.batches)}
	if err := again.decode(); err != nil {
		t.Fatalf("re-encoded body refused: %v", err)
	}
	if len(again.batches) != len(d.batches) {
		t.Fatalf("re-decoded %d batches, want %d", len(again.batches), len(d.batches))
	}
	for i, b := range d.batches {
		a := again.batches[i]
		if a.JobID != b.JobID || len(a.Runs) != len(b.Runs) {
			t.Fatalf("batch %d: %q × %d, want %q × %d", i, a.JobID, len(a.Runs), b.JobID, len(b.Runs))
		}
		for k, run := range b.Runs {
			ar := a.Runs[k]
			if ar.Metric != run.Metric || ar.Node != run.Node || len(ar.Values) != len(run.Values) {
				t.Fatalf("batch %d run %d: %s[%d] × %d, want %s[%d] × %d", i, k, ar.Metric, ar.Node, len(ar.Values), run.Metric, run.Node, len(run.Values))
			}
			for s := range run.Values {
				if ar.Offsets[s] != run.Offsets[s] || math.Float64bits(ar.Values[s]) != math.Float64bits(run.Values[s]) {
					t.Fatalf("batch %d run %d sample %d: (%d, %#x), want (%d, %#x)", i, k, s, ar.Offsets[s], math.Float64bits(ar.Values[s]), run.Offsets[s], math.Float64bits(run.Values[s]))
				}
			}
		}
	}
}

// TestBinaryConsecutiveRecordsOneBatch pins that consecutive records
// of one job — TypeRun frames, one per run, mixed with job-runs
// records — form one batch: the response names an unknown job once,
// exactly as the JSON form of the same batches does.
func TestBinaryConsecutiveRecordsOneBatch(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/jobs", registerRequest{JobID: "a", Nodes: 2})
	tick := []time.Duration{5 * time.Second}
	ghost := []monitor.Run{
		{Metric: apps.HeadlineMetric, Node: 0, Offsets: tick, Values: []float64{1}},
		{Metric: apps.HeadlineMetric, Node: 1, Offsets: tick, Values: []float64{2}},
	}
	known := []monitor.Run{{Metric: apps.HeadlineMetric, Node: 0, Offsets: tick, Values: []float64{6000}}}
	var body []byte
	for _, run := range ghost {
		body = append(body, frame(wire.AppendRun(nil, "ghost", run.Metric, run.Node, run.Offsets, run.Values))...)
	}
	body = append(body, jobRunsBody([]monitor.RunBatch{{JobID: "a", Runs: known}, {JobID: "a", Runs: known}})...)
	resp, err := http.Post(ts.URL+"/v1/samples", wire.ContentTypeRuns, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	bin := decode(t, resp)
	js := map[string]any{"batches": []sampleBatch{
		{JobID: "ghost", Samples: []wireSample{{Metric: apps.HeadlineMetric, Node: 0, OffsetS: 5, Value: 1}, {Metric: apps.HeadlineMetric, Node: 1, OffsetS: 5, Value: 2}}},
		{JobID: "a", Samples: []wireSample{{Metric: apps.HeadlineMetric, Node: 0, OffsetS: 5, Value: 6000}, {Metric: apps.HeadlineMetric, Node: 0, OffsetS: 5, Value: 6000}}},
	}}
	_, want := post(t, ts.URL+"/v1/samples", js)
	if fmt.Sprint(bin) != fmt.Sprint(want) {
		t.Errorf("binary response %v, JSON response %v", bin, want)
	}
	if u, ok := bin["unknown"].([]any); !ok || len(u) != 1 || u[0] != "ghost" {
		t.Errorf("unknown = %v, want [ghost]", bin["unknown"])
	}
}
