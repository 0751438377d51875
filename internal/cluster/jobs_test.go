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

// TestReconcileAdoptsOrphan loads a task directly on a node (behind
// the gateway's back) and checks reconcile adopts it into the gateway
// task table.
func TestReconcileAdoptsOrphan(t *testing.T) {
	cl, _, nodes := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := context.Background()

	data := makeVBS(t, 2, 6)
	orphan, err := nodes[0].client.Load(ctx, data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// The gateway does not know the task yet.
	before, err := cl.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 0 {
		t.Fatalf("gateway lists %d task(s) before reconcile, want 0", len(before))
	}

	j, err := cl.StartJob(ctx, "reconcile", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, cl, j.ID)
	if done.Status != jobs.StatusDone || done.Progress["adopted"] != 1 {
		t.Fatalf("reconcile = %+v, want done with adopted=1", done)
	}

	after, err := cl.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].Digest != orphan.Digest || after[0].Node != nodes[0].url {
		t.Fatalf("gateway tasks after reconcile = %+v, want the adopted orphan %s on %s",
			after, orphan.Digest, nodes[0].url)
	}

	// Idempotent: a second reconcile finds nothing to adopt.
	j2, err := cl.StartJob(ctx, "reconcile", nil)
	if err != nil {
		t.Fatal(err)
	}
	if done2 := waitJob(t, cl, j2.ID); done2.Progress["adopted"] != 0 || done2.Progress["dropped"] != 0 {
		t.Fatalf("second reconcile = %+v, want adopted=0 dropped=0", done2)
	}

	// The adopted task is a real gateway task: unload works through it.
	if err := cl.Unload(ctx, after[0].ID); err != nil {
		t.Fatalf("unload adopted task: %v", err)
	}
}

// TestReconcileCancelMode checks mode=cancel unloads orphans off the
// node instead of adopting them.
func TestReconcileCancelMode(t *testing.T) {
	cl, _, nodes := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	ctx := context.Background()

	data := makeVBS(t, 3, 6)
	if _, err := nodes[1].client.Load(ctx, data, server.LoadRequest{}); err != nil {
		t.Fatal(err)
	}

	j, err := cl.StartJob(ctx, "reconcile", map[string]string{"mode": "cancel"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, cl, j.ID)
	if done.Status != jobs.StatusDone || done.Progress["cancelled"] != 1 {
		t.Fatalf("reconcile cancel = %+v, want done with cancelled=1", done)
	}
	remote, err := nodes[1].client.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 0 {
		t.Fatalf("node still lists %d task(s) after cancel reconcile", len(remote))
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
	if got := find("vbs_gateway_tasks", nil); got != 1 {
		t.Errorf("gateway tasks = %v, want 1", got)
	}
	// Rebalance counters export even before any pass ran.
	if got := find("vbs_rebalance_passes_total", nil); got != 0 {
		t.Errorf("rebalance passes = %v, want 0 (no pass yet)", got)
	}
	// Every defined job kind exports a running gauge, idle included.
	for _, kind := range []string{"rebalance", "reconcile", "scrub", "tombstone-sweep", "warm"} {
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
