package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/controller"
	"repro/internal/fabric"
	"repro/internal/server"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 64, Height: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New([]*controller.Controller{controller.New(f, 2)}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

func TestRunJSONSummary(t *testing.T) {
	url := startDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", url, "-ops", "40", "-workers", "4",
		"-tasks", "2", "-mix", "40:40:20", "-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	var s summary
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, stdout.String())
	}
	if s.Ops != 40 {
		t.Errorf("ops = %d, want 40", s.Ops)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d (%v)", s.Errors, s.LastErrors)
	}
	if s.ReqPerSec <= 0 || s.WallS <= 0 {
		t.Errorf("throughput fields = %+v", s)
	}
	if s.PerOp["load"].Count == 0 {
		t.Error("no load op ran")
	}
	for name, st := range s.PerOp {
		if st.Count > 0 && (st.P50MS <= 0 || st.MaxMS < st.P99MS || st.P99MS < st.P50MS) {
			t.Errorf("%s percentiles inconsistent: %+v", name, st)
		}
	}

	// Cleanup drained every loaded task.
	cl := server.NewClient(url, nil)
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("%d task(s) left after cleanup", len(tasks))
	}
}

// TestRunScrape: -scrape folds the daemon's own histogram percentiles
// into the report, with counts matching the successful server-side ops.
func TestRunScrape(t *testing.T) {
	url := startDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", url, "-scrape", url, "-ops", "30", "-workers", "4",
		"-tasks", "2", "-mix", "40:40:20", "-json", "-cleanup=false",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var s summary
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, stdout.String())
	}
	if s.ScrapeURL != url {
		t.Errorf("scrape_url = %q, want %q", s.ScrapeURL, url)
	}
	if len(s.ServerSide) == 0 {
		t.Fatalf("no server_side block in %s", stdout.String())
	}
	// Every op the client ran successfully must show up server-side
	// with the same count (the daemon observes each handler once).
	for _, op := range []string{"load", "vbs_get", "unload"} {
		st, ok := s.ServerSide[op]
		if !ok {
			t.Errorf("server_side missing op %q (have %v)", op, s.ServerSide)
			continue
		}
		if st.Count <= 0 || st.P50MS < 0 || st.P99MS < st.P50MS {
			t.Errorf("server_side[%s] = %+v inconsistent", op, st)
		}
	}
	if s.Errors != 0 {
		t.Fatalf("errors = %d (%v)", s.Errors, s.LastErrors)
	}
	if got, want := s.ServerSide["load"].Count, s.PerOp["load"].Count; got != want {
		t.Errorf("server-side load count = %d, client-side = %d", got, want)
	}
}

func TestRunHumanSummary(t *testing.T) {
	url := startDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-url", url, "-ops", "10", "-workers", "2", "-tasks", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "req/s") || !strings.Contains(out, "p99") {
		t.Errorf("summary output: %s", out)
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "1:2"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad mix exit = %d, want 2", code)
	}
	if code := run([]string{"-workers", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad workers exit = %d, want 2", code)
	}
	if code := run([]string{"-url", "http://127.0.0.1:1", "-ops", "1"}, &stdout, &stderr); code != 1 {
		t.Errorf("unreachable target exit = %d, want 1", code)
	}
}

func TestParseMix(t *testing.T) {
	w, err := parseMix("20:60:20")
	if err != nil || w != [nOps]int{20, 60, 20} {
		t.Fatalf("parseMix = %v, %v", w, err)
	}
	for _, bad := range []string{"", "1:2", "a:b:c", "0:0:0", "-1:2:3"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// brokenDaemon serves /fabrics (so task generation proceeds) but
// fails every mutating endpoint — the shape of a dead backend behind
// a live proxy.
func brokenDaemon(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fabrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[{"index":0,"width":16,"height":16,"channel_width":8,"lut_size":6}]`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"injected backend failure"}`, http.StatusInternalServerError)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestMaxErrorRate: a run where every op fails must exit non-zero
// once a budget is set — and keep exiting 0 under the default budget
// of 1.0, preserving prior behavior for existing scripts.
func TestMaxErrorRate(t *testing.T) {
	url := brokenDaemon(t)
	common := []string{"-url", url, "-ops", "10", "-workers", "2", "-tasks", "1", "-mix", "100:0:0", "-cleanup=false"}

	var stdout, stderr bytes.Buffer
	code := run(append(common, "-max-error-rate", "0.5"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d with 100%% errors and budget 0.5, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "exceeds -max-error-rate") {
		t.Fatalf("stderr does not explain the budget failure: %s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run(common, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d with default budget, want 0 (back-compat)\nstderr: %s", code, stderr.String())
	}
}

// TestRunBatch: -batch N drives POST /tasks:batch; the summary gains
// the batch block, per-op counts still add up to -ops, and a clean
// batched run passes a zero error budget.
func TestRunBatch(t *testing.T) {
	url := startDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", url, "-ops", "40", "-workers", "4", "-batch", "8",
		"-tasks", "2", "-mix", "40:40:20", "-json", "-max-error-rate", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var s summary
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, stdout.String())
	}
	if s.Ops != 40 {
		t.Errorf("ops = %d, want 40", s.Ops)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d (%v)", s.Errors, s.LastErrors)
	}
	if s.Batch == nil {
		t.Fatalf("no batch block in %s", stdout.String())
	}
	if s.Batch.Size != 8 || s.Batch.Count == 0 || s.Batch.Errors != 0 {
		t.Errorf("batch block = %+v", s.Batch)
	}
	if s.Batch.P99MS < s.Batch.P50MS || s.Batch.MaxMS < s.Batch.P99MS {
		t.Errorf("batch percentiles inconsistent: %+v", s.Batch)
	}
	// Cleanup drained every loaded task.
	tasks, err := server.NewClient(url, nil).Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("%d task(s) left after cleanup", len(tasks))
	}
}

// rejectingDaemon serves /fabrics but answers every load with 409 —
// the shape of a fabric pool at capacity.
func rejectingDaemon(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fabrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[{"index":0,"width":16,"height":16,"channel_width":8,"lut_size":6}]`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no fabric can admit task"}`, http.StatusConflict)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestRejectsAreNotErrors: 409 capacity rejections land in the rejects
// bucket and do NOT trip -max-error-rate — the committed baseline's
// "load errors" were all such 409s, and gating on them would turn a
// full-but-healthy fleet into a red build.
func TestRejectsAreNotErrors(t *testing.T) {
	url := rejectingDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", url, "-ops", "10", "-workers", "2", "-tasks", "1",
		"-mix", "100:0:0", "-cleanup=false", "-json", "-max-error-rate", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: capacity rejections tripped the error budget\nstderr: %s", code, stderr.String())
	}
	var s summary
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, stdout.String())
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d, want 0 (all 409s)", s.Errors)
	}
	if s.Rejects != 10 || s.PerOp["load"].Rejects != 10 {
		t.Errorf("rejects = %d (per-op %d), want 10", s.Rejects, s.PerOp["load"].Rejects)
	}
}

// TestMaxErrorRatePassesCleanRun: a healthy run under a zero budget
// stays exit 0.
func TestMaxErrorRatePassesCleanRun(t *testing.T) {
	url := startDaemon(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-url", url, "-ops", "20", "-workers", "2", "-tasks", "1",
		"-mix", "50:40:10", "-max-error-rate", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d on a clean run with budget 0\nstderr: %s", code, stderr.String())
	}
}
