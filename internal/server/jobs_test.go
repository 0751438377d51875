package server_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/server"
)

// waitTerminal polls GET /jobs/{id} until the job leaves running.
func waitTerminal(t *testing.T, c *server.Client, id int64) server.JobInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach a terminal status", id)
	return server.JobInfo{}
}

func TestJobsHTTPSurface(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestDaemon(t, 1, 16, server.Options{DataDir: dir})
	ctx := context.Background()

	// Seed a blob so warm and scrub have something to chew on.
	v := makeVBS(1, 10, 4, 8, 1)
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutVBS(ctx, data, false); err != nil {
		t.Fatal(err)
	}

	// Unknown kind: 400 with the defined kinds in the message.
	if _, err := c.StartJob(ctx, "nope", nil); server.StatusCode(err) != 400 {
		t.Fatalf("unknown kind err = %v, want 400", err)
	}

	j, err := c.StartJob(ctx, "warm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != jobs.StatusRunning && !j.Status.Terminal() {
		t.Fatalf("start snapshot status = %q", j.Status)
	}
	done := waitTerminal(t, c, j.ID)
	if done.Status != jobs.StatusDone || done.Progress["warmed"] != 1 {
		t.Fatalf("warm job = %+v, want done with warmed=1", done)
	}

	scrub, err := c.StartJob(ctx, "scrub", nil)
	if err != nil {
		t.Fatal(err)
	}
	sdone := waitTerminal(t, c, scrub.ID)
	if sdone.Status != jobs.StatusDone || sdone.Progress["checked"] != 1 {
		t.Fatalf("scrub job = %+v, want done with checked=1", sdone)
	}

	ls, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 2 {
		t.Fatalf("GET /jobs listed %d jobs, want 2", len(ls))
	}

	// Abort of a finished job is a no-op 200; unknown id is 404.
	if _, err := c.AbortJob(ctx, scrub.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AbortJob(ctx, 99999); server.StatusCode(err) != 404 {
		t.Fatalf("abort of unknown id err = %v, want 404", err)
	}
}

func TestJobsScrubWithoutDiskFails(t *testing.T) {
	c, _ := newTestDaemon(t, 1, 16, server.Options{})
	j, err := c.StartJob(context.Background(), "scrub", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, c, j.ID)
	if done.Status != jobs.StatusFailed || done.Error == "" {
		t.Fatalf("scrub without disk = %+v, want failed with an error", done)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c, _ := newTestDaemon(t, 2, 16, server.Options{})
	ctx := context.Background()

	data, err := makeVBS(2, 10, 4, 8, 1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, data, server.LoadRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, data, server.LoadRequest{}); err != nil { // second load: cache hit
		t.Fatal(err)
	}

	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string, labels map[string]string) float64 {
		t.Helper()
		v, ok := metrics.Find(samples, name, labels)
		if !ok {
			t.Fatalf("metric %s%v not exported", name, labels)
		}
		return v
	}
	if got := find("vbs_server_op_duration_seconds_count", map[string]string{"op": "load"}); got != 2 {
		t.Errorf("load op count = %v, want 2", got)
	}
	bks := metrics.Buckets(samples, "vbs_server_op_duration_seconds", map[string]string{"op": "load"})
	if len(bks) != len(metrics.DefLatencyBuckets)+1 {
		t.Errorf("load histogram has %d buckets, want %d", len(bks), len(metrics.DefLatencyBuckets)+1)
	}
	if got := find("vbs_decode_total", nil); got != 1 {
		t.Errorf("decode total = %v, want 1 (second load cached)", got)
	}
	if got := find("vbs_cache_hits_total", nil); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}
	if got := find("vbs_server_tasks", nil); got != 2 {
		t.Errorf("tasks gauge = %v, want 2", got)
	}
	if got := find("vbs_fabric_tasks", map[string]string{"fabric": "0"}); got < 1 {
		t.Errorf("fabric 0 tasks = %v, want >= 1", got)
	}
	// Defined-but-idle job kinds export a zero running series.
	if got := find("vbs_jobs_running", map[string]string{"kind": "scrub"}); got != 0 {
		t.Errorf("scrub running gauge = %v, want 0", got)
	}
}
