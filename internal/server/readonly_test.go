package server

// Disk-full read-only mode over HTTP: writes answer 503 with the
// read_only code and a Retry-After hint, every read keeps answering
// 200 from the still-open store, /v1/health grows the disk section,
// and the engine resumes by itself once space frees. The golden
// transcript pins the wire shapes; the contract test covers headers
// and the auto-resume (whose timing a byte-pinned transcript cannot).

import (
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/efd/monitor"
	"repro/internal/tsdb"
	"repro/internal/vfs"
)

// readonlyFixture starts a storage-backed server whose store runs over
// a Fault fs with a disk-low watermark, so tests can dial free space
// and inject ENOSPC deterministically.
func readonlyFixture(t *testing.T, watermark int64, probe time.Duration) (*Server, *httptest.Server, *vfs.Fault) {
	t.Helper()
	fs := vfs.NewFault(vfs.OS{}, 1)
	st, err := tsdb.OpenOptions(t.TempDir(), tsdb.Options{FS: fs, DiskLowBytes: watermark})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewEngine(monitor.New(trainedDict(t)))
	srv.StoreProbeInterval = probe
	if _, err := srv.AttachStore(st); err != nil {
		st.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, fs
}

// fullDisk flips the fixture's disk to full: free space reads 0 and
// the next WAL write answers ENOSPC.
func fullDisk(fs *vfs.Fault) {
	fs.SetFree(0)
	fs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC})
}

// TestReadOnlyModeHTTP is the HTTP contract of disk-full read-only
// mode: 503 + Retry-After + read_only on writes, 200 on reads, health
// reporting, and auto-resume once space frees.
func TestReadOnlyModeHTTP(t *testing.T) {
	_, ts, fs := readonlyFixture(t, 0, 5*time.Millisecond)
	base := ts.URL

	if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": "r1", "nodes": 2}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	feedFlat(t, base, "r1", 0, 20, 6000)

	fullDisk(fs)
	resp, errObj := post(t, base+"/v1/samples", map[string]any{"job_id": "r1", "samples": goldenSamples(6000, 25)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disk-full ingest = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != readonlyRetryAfterS {
		t.Errorf("Retry-After = %q, want %q", got, readonlyRetryAfterS)
	}
	if errBody, ok := errObj["error"].(map[string]any); !ok || errBody["code"] != "read_only" {
		t.Errorf("error envelope = %v, want code read_only", errObj)
	}

	// Writes shed across the board...
	resp, _ = post(t, base+"/v1/samples", map[string]any{"job_id": "r1", "samples": goldenSamples(6000, 25)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readonly ingest = %d, want 503", resp.StatusCode)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", map[string]any{"job_id": "r2", "nodes": 2}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readonly register = %d, want 503", code)
	}
	// ...while every read keeps serving.
	if code := doJSON(t, "GET", base+"/v1/jobs/r1", nil, nil); code != http.StatusOK {
		t.Fatalf("readonly job read = %d, want 200", code)
	}
	if code := doJSON(t, "GET", base+"/v1/jobs/r1/series", nil, nil); code != http.StatusOK {
		t.Fatalf("readonly series read = %d, want 200", code)
	}
	var h struct {
		Status string `json:"status"`
		Disk   *struct {
			FreeBytes int64 `json:"free_bytes"`
			ReadOnly  bool  `json:"read_only"`
		} `json:"disk"`
	}
	if code := doJSON(t, "GET", base+"/v1/health", nil, &h); code != http.StatusOK {
		t.Fatalf("readonly health = %d, want 200", code)
	}
	if h.Status != "readonly" || h.Disk == nil || !h.Disk.ReadOnly || h.Disk.FreeBytes != 0 {
		t.Fatalf("readonly health body = %+v", h)
	}

	// Space frees; the probe resumes durable mode and writes work again.
	fs.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, "GET", base+"/v1/health", nil, &h); code == http.StatusOK && h.Status == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never resumed: health %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	feedFlat(t, base, "r1", 21, 40, 6000)
}

// TestGoldenV1ReadOnly pins the read-only wire shapes: the health disk
// section (healthy and readonly), the 503 read_only envelope on both
// ingest and registration, and reads serving across it. The readonly
// transition is triggered outside the transcript: the first failure's
// message carries the raw disk error, while every later shed write has
// the stable read-only message worth pinning. The probe interval is
// effectively infinite so attempt counters stay zero (deterministic),
// and free space is dialed via the Fault fs for the same reason.
func TestGoldenV1ReadOnly(t *testing.T) {
	_, ts, fs := readonlyFixture(t, 8<<20, time.Hour)
	fs.SetFree(64 << 20)
	g := &goldenRecorder{t: t, base: ts.URL}

	g.do(http.MethodPost, "/v1/jobs", registerRequest{JobID: "r1", Nodes: 2})
	g.do(http.MethodPost, "/v1/samples", sampleBatch{JobID: "r1", Samples: goldenSamples(6010, 1)})
	g.do(http.MethodGet, "/v1/health", nil)

	fullDisk(fs)
	if code := doJSON(t, "POST", ts.URL+"/v1/samples", sampleBatch{JobID: "r1", Samples: goldenSamples(6010, 25)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readonly trigger = %d, want 503", code)
	}

	g.do(http.MethodPost, "/v1/samples", sampleBatch{JobID: "r1", Samples: goldenSamples(6010, 25)})
	g.do(http.MethodPost, "/v1/jobs", registerRequest{JobID: "r2", Nodes: 2})
	g.do(http.MethodGet, "/v1/jobs/r1", nil)
	g.do(http.MethodGet, "/v1/health", nil)

	g.check("golden_v1_readonly.txt")
}
