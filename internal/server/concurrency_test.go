package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/apps"
	"repro/internal/core"
)

// jobPlan is one job's sample schedule for the concurrency test.
type jobPlan struct {
	id      string
	level   float64
	want    string
	samples []wireSample
}

func makePlan(i int) jobPlan {
	p := jobPlan{id: fmt.Sprintf("conc-job-%02d", i)}
	if i%2 == 0 {
		p.level, p.want = 6000, "ft"
	} else {
		p.level, p.want = 7000, "mg"
	}
	for sec := 0; sec <= 125; sec += 5 {
		for node := 0; node < 2; node++ {
			p.samples = append(p.samples, wireSample{
				Metric: apps.HeadlineMetric, Node: node,
				OffsetS: float64(sec), Value: p.level,
			})
		}
	}
	return p
}

// referenceState feeds the plan serially into a fresh stream against an
// identical (but unshared) dictionary and returns the expected terminal
// recognition state.
func referenceState(t *testing.T, p jobPlan) monitor.State {
	t.Helper()
	d := trainedDict(t)
	st := core.NewStream(d, 2)
	for _, smp := range p.samples {
		st.Feed(smp.Metric, smp.Node, time.Duration(smp.OffsetS*float64(time.Second)), smp.Value)
	}
	res := st.Recognize()
	return monitor.State{
		JobID: p.id, Complete: st.Complete(),
		Recognized: res.Recognized(), Top: res.Top(),
		Matched: res.Matched, Total: res.Total,
	}
}

// TestShardedServerConcurrency is the tentpole's race test: parallel
// registrants, chunked ingest, recognition polls, and a concurrent
// online Learn all run against the sharded server under -race, and
// every job's terminal state must match a serially-fed reference
// stream.
func TestShardedServerConcurrency(t *testing.T) {
	const jobs = 32
	s := NewEngine(monitor.New(trainedDict(t)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	plans := make([]jobPlan, jobs)
	for i := range plans {
		plans[i] = makePlan(i)
	}

	var wg sync.WaitGroup
	errs := make(chan error, jobs*2+2)
	// One goroutine per job: register, then feed in chunks with
	// interleaved polls.
	for _, p := range plans {
		wg.Add(1)
		go func(p jobPlan) {
			defer wg.Done()
			if err := doPost(ts.URL+"/v1/jobs", registerRequest{JobID: p.id, Nodes: 2}, http.StatusCreated); err != nil {
				errs <- fmt.Errorf("register %s: %w", p.id, err)
				return
			}
			const chunk = 8
			for off := 0; off < len(p.samples); off += chunk {
				end := off + chunk
				if end > len(p.samples) {
					end = len(p.samples)
				}
				if err := doPost(ts.URL+"/v1/samples", sampleBatch{JobID: p.id, Samples: p.samples[off:end]}, http.StatusOK); err != nil {
					errs <- fmt.Errorf("feed %s: %w", p.id, err)
					return
				}
				if off%(chunk*4) == 0 {
					resp, err := http.Get(ts.URL + "/v1/jobs/" + p.id)
					if err != nil {
						errs <- fmt.Errorf("poll %s: %w", p.id, err)
						return
					}
					resp.Body.Close()
				}
			}
		}(p)
	}
	// Background pollers sweeping all jobs and the listing/metrics
	// endpoints while ingest runs.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				urls := []string{
					ts.URL + "/v1/jobs/" + plans[(g*17+i)%jobs].id,
					ts.URL + "/v1/jobs?limit=1000",
					ts.URL + "/v1/metrics",
					ts.URL + "/v1/dictionary",
				}
				resp, err := http.Get(urls[i%len(urls)])
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	// A concurrent learner: its own job at a novel level, fed to
	// completion and labelled while everything else is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		learn := jobPlan{id: "conc-learn", level: 9000}
		for sec := 0; sec <= 125; sec++ {
			for node := 0; node < 2; node++ {
				learn.samples = append(learn.samples, wireSample{
					Metric: apps.HeadlineMetric, Node: node,
					OffsetS: float64(sec), Value: learn.level,
				})
			}
		}
		if err := doPost(ts.URL+"/v1/jobs", registerRequest{JobID: learn.id, Nodes: 2}, http.StatusCreated); err != nil {
			errs <- fmt.Errorf("register learner: %w", err)
			return
		}
		if err := doPost(ts.URL+"/v1/samples", sampleBatch{JobID: learn.id, Samples: learn.samples}, http.StatusOK); err != nil {
			errs <- fmt.Errorf("feed learner: %w", err)
			return
		}
		if err := doPost(ts.URL+"/v1/jobs/"+learn.id+"/label", labelRequest{App: "lammps", Input: "X"}, http.StatusOK); err != nil {
			errs <- fmt.Errorf("label learner: %w", err)
			return
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Terminal state of every job matches its serially-fed reference.
	for _, p := range plans {
		want := referenceState(t, p)
		_, body := get(t, ts.URL+"/v1/jobs/"+p.id)
		if body["top"] != want.Top || body["complete"].(bool) != want.Complete {
			t.Errorf("%s: top=%v complete=%v, want top=%v complete=%v",
				p.id, body["top"], body["complete"], want.Top, want.Complete)
		}
		if int(body["matched"].(float64)) != want.Matched || int(body["total"].(float64)) != want.Total {
			t.Errorf("%s: matched/total = %v/%v, want %d/%d",
				p.id, body["matched"], body["total"], want.Matched, want.Total)
		}
		if body["top"] != p.want {
			t.Errorf("%s recognized as %v, want %s", p.id, body["top"], p.want)
		}
	}
	// The concurrently learned application is recognizable and its job
	// consumed.
	var top string
	s.Dictionary().Read(func(d *core.Dictionary) {
		top = d.Recognize(fixedSource{nodes: 2, level: 9000}).Top()
	})
	if top != "lammps" {
		t.Errorf("learned app recognized as %q, want lammps", top)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/conc-learn"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("labelled job survived: %v", resp.Status)
	}
}

// doPost posts JSON and checks the status code.
func doPost(url string, body any, wantStatus int) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return fmt.Errorf("%s: %s (%v)", url, resp.Status, m)
	}
	return nil
}
