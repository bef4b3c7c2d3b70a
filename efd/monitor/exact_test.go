package monitor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestLabelTeachesStoredKeys runs integer telemetry, the kind LDMS
// counters produce, through the engine: 300 jobs on 4 nodes at levels
// 3k–12k with σ 40, ingested in runs of random length, labelled, then
// re-recognized from the store. Integer window means land on rounding
// ties often, so any difference between the live and the stored mean
// shows as a key. Every job must match every key it taught, and the
// dictionary taught by labelling must save to the bytes of one that
// Learn teaches offline from the same samples.
func TestLabelTeachesStoredKeys(t *testing.T) {
	cfg := core.DefaultConfig(4)
	d, err := core.NewDictionary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.NewDictionary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	if _, err := e.OpenStore(t.TempDir(), StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()

	const jobs, nodes = 300, 4
	rng := rand.New(rand.NewSource(20))
	names := apps.Names()
	offs := make([]time.Duration, 126)
	for i := range offs {
		offs[i] = time.Duration(i) * time.Second
	}
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%d", j)
		jb, err := e.Register(id, nodes)
		if err != nil {
			t.Fatal(err)
		}
		ns := telemetry.NewNodeSet()
		for node := 0; node < nodes; node++ {
			level := float64(3000 + rng.Intn(9001))
			vals := make([]float64, len(offs))
			for i := range vals {
				vals[i] = math.Round(level + 40*rng.NormFloat64())
			}
			for k := 0; k < len(offs); {
				n := min(1+rng.Intn(40), len(offs)-k)
				if _, err := jb.IngestRun(apps.HeadlineMetric, node, offs[k:k+n], vals[k:k+n]); err != nil {
					t.Fatal(err)
				}
				k += n
			}
			ns.Put(telemetry.NewSeriesFromColumns(apps.HeadlineMetric, node, nil, vals))
		}
		label := apps.Label{App: names[j%len(names)], Input: apps.AllInputs[j%len(apps.AllInputs)]}
		if _, err := jb.Label(label.App, string(label.Input)); err != nil {
			t.Fatal(err)
		}
		offline.Learn(core.NewTelemetrySource(ns), label)
	}

	missed := 0
	for j := 0; j < jobs; j++ {
		st, err := e.RecognizeStored(fmt.Sprintf("job-%d", j))
		if err != nil {
			t.Fatal(err)
		}
		if st.Total != nodes || st.Matched != st.Total {
			if missed++; missed <= 5 {
				t.Errorf("job-%d: stored recognition matched %d of %d keys it taught", j, st.Matched, st.Total)
			}
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d jobs miss a key they taught", missed, jobs)
	}
	var online, want bytes.Buffer
	if err := e.SaveDictionary(&online); err != nil {
		t.Fatal(err)
	}
	if err := offline.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(online.Bytes(), want.Bytes()) {
		t.Errorf("dictionary taught by Label (%d bytes) differs from offline Learn (%d bytes)", online.Len(), want.Len())
	}
}

// TestOverflowingWindowSkipped pins that a window whose finite samples
// sum past MaxFloat64 has no mean live or stored: the job's result and
// its stored re-recognition count only the other node's key, and the
// label teaches it no key.
func TestOverflowingWindowSkipped(t *testing.T) {
	d, err := core.NewDictionary(core.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	if _, err := e.OpenStore(t.TempDir(), StoreOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer e.CloseStore()
	jb, err := e.Register("big", 2)
	if err != nil {
		t.Fatal(err)
	}
	samples := flat(6000, 2, 125)
	for i := range samples {
		if samples[i].Node == 0 && samples[i].OffsetS >= 60 && samples[i].OffsetS < 120 {
			samples[i].Value = 1.5e307
		}
	}
	if _, err := jb.Ingest(samples); err != nil {
		t.Fatal(err)
	}
	if st, err := jb.Result(); err != nil || st.Total != 1 {
		t.Fatalf("live result: %+v, %v; want one key", st, err)
	}
	if _, err := jb.Label("ft", "X"); err != nil {
		t.Fatal(err)
	}
	st, err := e.RecognizeStored("big")
	if err != nil || st.Total != 1 || st.Matched != 1 || st.Top != "ft" {
		t.Fatalf("stored result: %+v, %v; want the one finite key matched", st, err)
	}
	if keys := e.DictionaryInfo().Keys; keys != 1 {
		t.Errorf("label taught %d keys, want the one finite key", keys)
	}
}
