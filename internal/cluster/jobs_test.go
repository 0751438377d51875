package cluster_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/server"
)

// waitJob polls GET /jobs/{id} until the job leaves running.
func waitJob(t *testing.T, c *server.Client, id int64) server.JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %d did not reach a terminal status", id)
	return server.JobInfo{}
}

// TestFleetJobScatterGather is the fleet fan-out acceptance: one
// gateway job runs the kind on every node and its progress counters
// are the sum of the per-node ones.
func TestFleetJobScatterGather(t *testing.T) {
	cl, _, _ := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := context.Background()

	// A blob on both nodes (replicas=2) gives every node one container
	// to warm.
	data := makeVBS(t, 1, 6)
	if _, err := cl.PutVBS(ctx, data, false); err != nil {
		t.Fatal(err)
	}

	j, err := cl.StartJob(ctx, "warm", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, cl, j.ID)
	if done.Status != jobs.StatusDone {
		t.Fatalf("fleet warm = %+v, want done", done)
	}
	for counter, want := range map[string]int64{
		"nodes": 2, "started": 2, "nodes_done": 2, "warmed": 2,
	} {
		if got := done.Progress[counter]; got != want {
			t.Errorf("progress[%s] = %d, want %d (full: %v)", counter, got, want, done.Progress)
		}
	}

	// The merged listing shows the gateway job plus both node halves.
	ls, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var gwJobs, nodeJobs int
	for _, s := range ls {
		if s.Kind != "warm" {
			continue
		}
		if s.Node == "gateway" {
			gwJobs++
		} else {
			nodeJobs++
		}
	}
	if gwJobs != 1 || nodeJobs != 2 {
		t.Fatalf("merged listing: %d gateway + %d node warm jobs, want 1 + 2 (%+v)", gwJobs, nodeJobs, ls)
	}
}

// TestRebalancerStatsCumulative pins the satellite requirement: the
// rebalancer's counters are process-lifetime cumulative — reading
// Stats never resets them, and restarting the rebalance job never
// resets them — so a Prometheus rate() over the scraped series works.
func TestRebalancerStatsCumulative(t *testing.T) {
	cl, gw, _ := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := context.Background()

	data := makeVBS(t, 4, 6)
	if _, err := cl.PutVBS(ctx, data, false); err != nil {
		t.Fatal(err)
	}

	runPass := func() {
		t.Helper()
		j, err := cl.StartJob(ctx, "rebalance", nil)
		if err != nil {
			t.Fatal(err)
		}
		if done := waitJob(t, cl, j.ID); done.Status != jobs.StatusDone {
			t.Fatalf("rebalance job = %+v, want done", done)
		}
	}

	runPass()
	first := gw.Rebalancer().Stats()
	if first.Passes < 1 || first.BlobsExamined < 1 {
		t.Fatalf("first pass stats = %+v, want passes>=1 examined>=1", first)
	}
	// Reading stats must not reset them.
	if again := gw.Rebalancer().Stats(); again != first {
		t.Fatalf("Stats() is not side-effect-free: %+v then %+v", first, again)
	}

	runPass()
	second := gw.Rebalancer().Stats()
	if second.Passes <= first.Passes {
		t.Fatalf("passes not cumulative across job restarts: %d then %d", first.Passes, second.Passes)
	}
	if second.BlobsExamined < first.BlobsExamined+1 {
		t.Fatalf("blobs examined reset across jobs: %d then %d", first.BlobsExamined, second.BlobsExamined)
	}
	for name, pair := range map[string][2]uint64{
		"copies":  {first.Copies, second.Copies},
		"trims":   {first.Trims, second.Trims},
		"tombs":   {first.TombstonesPropagated, second.TombstonesPropagated},
		"skipped": {first.Skipped, second.Skipped},
		"errors":  {first.Errors, second.Errors},
		"aborted": {first.Aborted, second.Aborted},
	} {
		if pair[1] < pair[0] {
			t.Errorf("%s went backwards: %d then %d", name, pair[0], pair[1])
		}
	}
}

// TestGatewayMetricsEndpoint scrapes the gateway's /metrics and checks
// the families the fleet dashboards (and the smoke/chaos scripts)
// depend on.
func TestGatewayMetricsEndpoint(t *testing.T) {
	cl, _, _ := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := context.Background()

	data := makeVBS(t, 5, 6)
	res, err := cl.Load(ctx, data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetVBS(ctx, res.Digest); err != nil {
		t.Fatal(err)
	}

	samples, err := cl.Metrics(ctx)
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
	if got := find("vbs_gateway_op_duration_seconds_count", map[string]string{"op": "load"}); got != 1 {
		t.Errorf("gateway load op count = %v, want 1", got)
	}
	if got := find("vbs_gateway_op_duration_seconds_count", map[string]string{"op": "vbs_get"}); got != 1 {
		t.Errorf("gateway vbs_get op count = %v, want 1", got)
	}
	if got := find("vbs_cluster_nodes", nil); got != 2 {
		t.Errorf("cluster nodes = %v, want 2", got)
	}
	if got := find("vbs_cluster_alive_nodes", nil); got != 2 {
		t.Errorf("alive nodes = %v, want 2", got)
	}
	// Rebalance counters export even before any pass ran.
	if got := find("vbs_rebalance_passes_total", nil); got != 0 {
		t.Errorf("rebalance passes = %v, want 0 (no pass yet)", got)
	}
	// Every defined job kind exports a running gauge, idle included.
	for _, kind := range []string{"rebalance", "scrub", "tombstone-sweep", "warm"} {
		if got := find("vbs_jobs_running", map[string]string{"kind": kind}); got != 0 {
			t.Errorf("jobs running{kind=%s} = %v, want 0", kind, got)
		}
	}
}

// TestGatewayTimesUnloadAndRelocate: every op the gateway serves has a
// latency series from boot, and one unload (and one relocate) through
// the gateway counts exactly once.
func TestGatewayTimesUnloadAndRelocate(t *testing.T) {
	cl, _, _ := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := t.Context()
	samples, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"unload", "relocate"} {
		if got, ok := metrics.Find(samples, "vbs_gateway_op_duration_seconds_count", map[string]string{"op": op}); !ok || got != 0 {
			t.Errorf("op %s before traffic: count %v, exported %v; want 0, true", op, got, ok)
		}
	}

	res, err := cl.Load(ctx, makeVBS(t, 6, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Relocate(ctx, res.ID, 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unload(ctx, res.ID); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"unload", "relocate"} {
		if got := metricValue(t, cl.Base(), "vbs_gateway_op_duration_seconds_count", "op", op); got != 1 {
			t.Errorf("op %s count = %v after one %s, want 1", op, got, op)
		}
	}
}
