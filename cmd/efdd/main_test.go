package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

type flatSource struct {
	nodes int
	level float64
}

func (f flatSource) WindowMean(metric string, node int, w telemetry.Window) (float64, bool) {
	if metric != apps.HeadlineMetric || node >= f.nodes {
		return 0, false
	}
	return f.level, true
}

func (f flatSource) NodeCount() int { return f.nodes }

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestGracefulShutdownSavesLearnedLabels exercises the daemon's
// headline bugfix end to end: start efdd with -save, teach it one new
// label online, deliver SIGTERM, and verify the re-saved dictionary
// contains the label after a reload.
func TestGracefulShutdownSavesLearnedLabels(t *testing.T) {
	dir := t.TempDir()
	dictPath := filepath.Join(dir, "dict.json")
	savePath := filepath.Join(dir, "saved.json")

	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(flatSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	f, err := os.Create(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(),
			[]string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-save", savePath},
			io.Discard, func(a string) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start listening")
	}

	if resp := postJSON(t, base+"/v1/jobs", map[string]any{"job_id": "j1", "nodes": 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v", resp.Status)
	}
	var samples []map[string]any
	for sec := 0; sec <= 125; sec++ {
		for node := 0; node < 2; node++ {
			samples = append(samples, map[string]any{
				"metric": apps.HeadlineMetric, "node": node,
				"offset_s": float64(sec), "value": 9000.0,
			})
		}
	}
	if resp := postJSON(t, base+"/v1/samples", map[string]any{"job_id": "j1", "samples": samples}); resp.StatusCode != http.StatusOK {
		t.Fatalf("samples: %v", resp.Status)
	}
	if resp := postJSON(t, base+"/v1/jobs/j1/label", map[string]string{"app": "lammps", "input": "X"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("label: %v", resp.Status)
	}

	// The daemon catches SIGTERM via signal.NotifyContext, so signalling
	// our own process exercises the real shutdown path.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	sf, err := os.Open(savePath)
	if err != nil {
		t.Fatalf("saved dictionary missing: %v", err)
	}
	defer sf.Close()
	reloaded, err := core.Load(sf)
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Recognize(flatSource{nodes: 2, level: 9000}).Top(); got != "lammps" {
		t.Errorf("reloaded dictionary recognizes %q, want lammps", got)
	}
	if got := reloaded.Recognize(flatSource{nodes: 2, level: 6000}).Top(); got != "ft" {
		t.Errorf("reloaded dictionary lost original label: got %q", got)
	}
}

// TestRestartRecoversIngestedJobs is the storage-backed end-to-end
// restart test: ingest samples into a -data-dir daemon, SIGTERM it,
// restart over the same directory, and require the recognition state
// of the recovered job to be byte-identical to an uninterrupted
// in-memory daemon fed the same samples.
func TestRestartRecoversIngestedJobs(t *testing.T) {
	dir := t.TempDir()
	dictPath := filepath.Join(dir, "dict.json")
	dataDir := filepath.Join(dir, "store")

	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(flatSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	f, err := os.Create(dictPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	start := func(ctx context.Context, dataDir string) (base string, done chan error) {
		t.Helper()
		addrCh := make(chan string, 1)
		done = make(chan error, 1)
		args := []string{"-dict", dictPath, "-addr", "127.0.0.1:0"}
		if dataDir != "" {
			args = append(args, "-data-dir", dataDir)
		}
		go func() {
			done <- run(ctx, args, io.Discard, func(a string) { addrCh <- a })
		}()
		select {
		case a := <-addrCh:
			return "http://" + a, done
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not start listening")
		}
		return "", nil
	}

	feed := func(base, jobID string, from, to int) {
		t.Helper()
		var samples []map[string]any
		for sec := from; sec <= to; sec++ {
			for node := 0; node < 2; node++ {
				samples = append(samples, map[string]any{
					"metric": apps.HeadlineMetric, "node": node,
					"offset_s": float64(sec), "value": 6000.0,
				})
			}
		}
		if resp := postJSON(t, base+"/v1/samples", map[string]any{"job_id": jobID, "samples": samples}); resp.StatusCode != http.StatusOK {
			t.Fatalf("samples: %v", resp.Status)
		}
	}
	jobState := func(base, jobID string) string {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job state: %v %s", resp.Status, b)
		}
		return string(b)
	}

	// Daemon 1: storage-backed; partial window ingested, then SIGTERM.
	base1, done1 := start(context.Background(), dataDir)
	if resp := postJSON(t, base1+"/v1/jobs", map[string]any{"job_id": "j1", "nodes": 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v", resp.Status)
	}
	feed(base1, "j1", 0, 90)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("daemon 1 exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon 1 did not shut down after SIGTERM")
	}

	// Reference: an uninterrupted in-memory daemon fed identically.
	refCtx, refCancel := context.WithCancel(context.Background())
	baseRef, doneRef := start(refCtx, "")
	if resp := postJSON(t, baseRef+"/v1/jobs", map[string]any{"job_id": "j1", "nodes": 2}); resp.StatusCode != http.StatusCreated {
		t.Fatal("register ref")
	}
	feed(baseRef, "j1", 0, 90)
	want := jobState(baseRef, "j1")

	// Daemon 2: same data dir; the job must be back, bit-identical.
	ctx2, cancel2 := context.WithCancel(context.Background())
	base2, done2 := start(ctx2, dataDir)
	if got := jobState(base2, "j1"); got != want {
		t.Errorf("recovered recognition state differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// The recovered job keeps streaming: complete the window on both
	// daemons and compare the final recognition too.
	feed(base2, "j1", 91, 125)
	feed(baseRef, "j1", 91, 125)
	got, wantFinal := jobState(base2, "j1"), jobState(baseRef, "j1")
	if got != wantFinal {
		t.Errorf("final state differs:\n got %s\nwant %s", got, wantFinal)
	}
	var parsed struct {
		Top string `json:"top"`
	}
	if err := json.Unmarshal([]byte(got), &parsed); err != nil || parsed.Top != "ft" {
		t.Errorf("recovered job not recognized: %s (err %v)", got, err)
	}

	refCancel()
	cancel2()
	for _, ch := range []chan error{doneRef, done2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
}

// TestLockedDataDir: pointing a second efdd at a live data directory
// must fail fast with a message that names the real condition (another
// process holds the flock), not a generic store-open error.
func TestLockedDataDir(t *testing.T) {
	dir := t.TempDir()
	dictPath := writeTestDict(t, dir)
	dataDir := filepath.Join(dir, "store")

	st, err := tsdb.OpenOptions(dataDir, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	err = run(context.Background(),
		[]string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-data-dir", dataDir},
		io.Discard, nil)
	if err == nil {
		t.Fatal("second daemon on a locked data dir: want error")
	}
	if !strings.Contains(err.Error(), "locked by another efdd process") {
		t.Errorf("lock-conflict error %q does not name the condition", err)
	}
}

// TestQuarantineStartupLog: quarantine artifacts in the data directory
// are listed at startup, each with its full path and byte count.
func TestQuarantineStartupLog(t *testing.T) {
	dir := t.TempDir()
	dictPath := writeTestDict(t, dir)
	dataDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Plant artifacts from a hypothetical earlier recovery: the store
	// ignores both names, the startup log must not.
	qPath := filepath.Join(dataDir, "wal.quarantine")
	cPath := filepath.Join(dataDir, "000042.seg.corrupt")
	if err := os.WriteFile(qPath, make([]byte, 123), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cPath, make([]byte, 456), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	started := make(chan string, 1)
	go func() {
		done <- run(ctx, []string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-data-dir", dataDir},
			&out, func(a string) { started <- a })
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	log := out.String()
	for _, want := range []string{
		`msg="quarantined file" path=` + qPath + " bytes=123",
		`msg="quarantined file" path=` + cPath + " bytes=456",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("startup log missing %q:\n%s", want, log)
		}
	}
}

// writeTestDict saves a two-node single-label dictionary into dir and
// returns its path.
func writeTestDict(t *testing.T, dir string) string {
	t.Helper()
	d, err := core.NewDictionary(core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	d.Learn(flatSource{nodes: 2, level: 6000}, apps.Label{App: "ft", Input: apps.InputX})
	path := filepath.Join(dir, "dict.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// TestRunBadFlagsAndMissingDict covers the error paths of run.
func TestRunBadFlagsAndMissingDict(t *testing.T) {
	if err := run(context.Background(), []string{"-dict", filepath.Join(t.TempDir(), "nope.json")}, io.Discard, nil); err == nil {
		t.Error("missing dictionary: want error")
	}
	var discard bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &discard, nil); err == nil {
		t.Error("bogus flag: want error")
	}
}

// TestDiskLowWatermarkFlag: -disk-low-mb reaches the store (the
// health disk section reports the watermark) and the startup log
// carries the recovery duration.
func TestDiskLowWatermarkFlag(t *testing.T) {
	dir := t.TempDir()
	dictPath := writeTestDict(t, dir)
	dataDir := filepath.Join(dir, "store")

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	started := make(chan string, 1)
	go func() {
		done <- run(ctx, []string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-disk-low-mb", "8"},
			&out, func(a string) { started <- a })
	}()
	var base string
	select {
	case a := <-started:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}

	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
		Disk   *struct {
			FreeBytes         int64 `json:"free_bytes"`
			LowWatermarkBytes int64 `json:"low_watermark_bytes"`
			ReadOnly          bool  `json:"read_only"`
		} `json:"disk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "healthy" || h.Disk == nil {
		t.Fatalf("health = %+v, want healthy with a disk section", h)
	}
	if h.Disk.LowWatermarkBytes != 8<<20 || h.Disk.ReadOnly {
		t.Fatalf("disk section = %+v, want low_watermark_bytes %d", h.Disk, 8<<20)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	log := out.String()
	if !strings.Contains(log, "telemetry store recovered") || !strings.Contains(log, "duration_ms=") {
		t.Errorf("startup log missing store recovery event with duration:\n%s", log)
	}
}
