package cluster_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/repo"
	"repro/internal/server"
)

// newElasticCluster is newCluster with disk-backed nodes (tombstones
// need a repository) and a fast rebalance cadence, returning the admin
// client alongside.
func newElasticCluster(t *testing.T, n int, opts cluster.Options) (*server.Client, *cluster.Admin, *cluster.Gateway, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newNode(t, 1, server.Options{DataDir: t.TempDir()})
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 100 * time.Millisecond
	}
	if opts.RebalanceInterval == 0 {
		opts.RebalanceInterval = 50 * time.Millisecond
	}
	cl, gw := startGateway(t, nodes, opts)
	return cl, cluster.NewAdmin(cl.Base()), gw, nodes
}

// TestAdminErrorsCarryStatus: admin replies share server.Client's
// error surface, so callers branch on the status, not on error text.
func TestAdminErrorsCarryStatus(t *testing.T) {
	_, admin, _, _ := newElasticCluster(t, 2, cluster.Options{Replicas: 2})
	ctx := t.Context()

	if _, err := admin.RemoveNode(ctx, "http://127.0.0.1:1"); server.StatusCode(err) != http.StatusNotFound {
		t.Errorf("RemoveNode of a non-member = %v (status %d), want 404", err, server.StatusCode(err))
	}
	joined := newNode(t, 1, server.Options{DataDir: t.TempDir()})
	if _, err := admin.AddNode(ctx, joined.url); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if _, err := admin.AddNode(ctx, joined.url); server.StatusCode(err) != http.StatusConflict {
		t.Errorf("second AddNode = %v (status %d), want 409", err, server.StatusCode(err))
	}
}

// waitConverged polls until every digest's holder set equals its ring
// owner set — the rebalancer's fixpoint.
func waitConverged(t *testing.T, gw *cluster.Gateway, nodes []*testNode, digests []string, replicas int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		converged := true
		for _, hex := range digests {
			d, err := repo.ParseDigest(hex)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, o := range gw.Ring().Lookup(d, replicas) {
				want[o] = true
			}
			holders := nodesHolding(t, nodes, hex)
			if len(holders) != len(want) {
				converged = false
				break
			}
			for _, h := range holders {
				if !want[h] {
					converged = false
				}
			}
			if !converged {
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, hex := range digests {
				d, _ := repo.ParseDigest(hex)
				t.Logf("digest %s: holders %v, owners %v",
					hex[:12], nodesHolding(t, nodes, hex), gw.Ring().Lookup(d, replicas))
			}
			t.Fatal("cluster never converged to ring ownership")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterJoinNodeRebalances is the elastic-membership acceptance
// path: a node joins an active cluster at runtime and the rebalancer
// copies its share of the key space onto it (and trims the replicas
// that moved off the old owners) with zero client-visible errors.
func TestClusterJoinNodeRebalances(t *testing.T) {
	cl, admin, gw, nodes := newElasticCluster(t, 2, cluster.Options{Replicas: 2})
	ctx := t.Context()

	var digests []string
	blobs := map[string][]byte{}
	for seed := int64(1); seed <= 8; seed++ {
		data := makeVBS(t, seed, 5)
		res, err := cl.PutVBS(ctx, data, false)
		if err != nil {
			t.Fatalf("put seed %d: %v", seed, err)
		}
		digests = append(digests, res.Digest)
		blobs[res.Digest] = data
	}

	oldRing := gw.Ring().Version()
	joined := newNode(t, 1, server.Options{DataDir: t.TempDir()})
	nodes = append(nodes, joined)
	ms, err := admin.AddNode(ctx, joined.url)
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if len(ms.Nodes) != 3 || ms.Version == 0 {
		t.Fatalf("membership after join = %+v", ms)
	}
	if !gw.Ring().Has(joined.url) || gw.Ring().Version() == oldRing {
		t.Fatal("join did not change the ring")
	}

	// Reads must keep working while the rebalancer is mid-copy.
	for hex, want := range blobs {
		got, err := cl.GetVBS(ctx, hex)
		if err != nil {
			t.Fatalf("get %s during rebalance: %v", hex[:12], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest %s served differently during rebalance", hex[:12])
		}
	}

	waitConverged(t, gw, nodes, digests, 2)

	passes := metricValue(t, cl.Base(), "vbs_rebalance_passes_total")
	examined := metricValue(t, cl.Base(), "vbs_rebalance_blobs_examined_total")
	if passes == 0 || examined == 0 {
		t.Errorf("rebalance not advancing: %v pass(es), %v blob(s) examined", passes, examined)
	}
	members, err := admin.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if members.Version == 0 {
		t.Error("membership version not advancing")
	}
	for _, m := range members.Nodes {
		if m.Mode != "active" {
			t.Errorf("node %s mode %q after plain join", m.Name, m.Mode)
		}
	}

	// Duplicate join is a conflict, not a silent reset.
	if _, err := admin.AddNode(ctx, joined.url); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate AddNode = %v, want 409", err)
	}
	if _, err := admin.AddNode(ctx, "not a url"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("malformed AddNode = %v, want 400", err)
	}
}

// TestClusterDrainAndRemoveNode decommissions a member gracefully:
// drain takes it off the ring, the rebalancer empties it, reads keep
// succeeding throughout, and remove forgets it.
func TestClusterDrainAndRemoveNode(t *testing.T) {
	cl, admin, gw, nodes := newElasticCluster(t, 3, cluster.Options{Replicas: 2})
	ctx := t.Context()

	var digests []string
	blobs := map[string][]byte{}
	for seed := int64(20); seed < 26; seed++ {
		data := makeVBS(t, seed, 5)
		res, err := cl.PutVBS(ctx, data, false)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
		blobs[res.Digest] = data
	}

	// Drain by bare host:port — the admin surface resolves it.
	victim := nodes[0]
	host := strings.TrimPrefix(victim.url, "http://")
	ms, err := admin.DrainNode(ctx, host)
	if err != nil {
		t.Fatalf("DrainNode(%q): %v", host, err)
	}
	var mode string
	for _, n := range ms.Nodes {
		if n.Name == victim.url {
			mode = n.Mode
		}
	}
	if mode != "draining" {
		t.Fatalf("victim mode %q after drain, membership %+v", mode, ms)
	}
	if gw.Ring().Has(victim.url) {
		t.Fatal("draining node still on the ring")
	}

	// Reads keep succeeding while the victim still holds sole copies
	// of nothing (R=2) — and even its copies are reachable via the
	// scatter fallback until trimmed.
	for hex, want := range blobs {
		got, err := cl.GetVBS(ctx, hex)
		if err != nil {
			t.Fatalf("get %s during drain: %v", hex[:12], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest %s served differently during drain", hex[:12])
		}
	}

	// The rebalancer must empty the draining node completely.
	deadline := time.Now().Add(20 * time.Second)
	for {
		left, err := victim.client.ListVBS(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining node still holds %d blob(s)", len(left))
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitConverged(t, gw, nodes, digests, 2)

	if _, err := admin.RemoveNode(ctx, victim.url); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	ms, err = admin.Nodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Nodes) != 2 {
		t.Fatalf("membership after remove = %+v", ms)
	}
	for hex, want := range blobs {
		got, err := cl.GetVBS(ctx, hex)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("get %s after remove: %v", hex[:12], err)
		}
	}
	if _, err := admin.RemoveNode(ctx, victim.url); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("double remove = %v, want 404", err)
	}
}

// TestClusterDeleteTombstone pins the gateway-level delete contract:
// DELETE tombstones fleet-wide, reads answer 410 (not a resurrecting
// scatter hit), and an explicit re-put through the gateway lifts it.
func TestClusterDeleteTombstone(t *testing.T) {
	cl, _, _, nodes := newElasticCluster(t, 2, cluster.Options{Replicas: 2})
	ctx := t.Context()

	data := makeVBS(t, 31, 5)
	res, err := cl.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteVBS(ctx, res.Digest); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.GetVBS(ctx, res.Digest); err == nil || !strings.Contains(err.Error(), "410") {
		t.Fatalf("get after delete = %v, want 410", err)
	}
	for _, n := range nodes {
		ts, err := n.client.Tombstones(ctx)
		if err != nil || len(ts) != 1 {
			t.Fatalf("node %s tombstones = %+v, %v", n.url, ts, err)
		}
	}

	// An explicit write through the gateway is user intent: it lifts
	// the tombstone everywhere it lands.
	if _, err := cl.PutVBS(ctx, data, false); err != nil {
		t.Fatalf("re-put after delete: %v", err)
	}
	got, err := cl.GetVBS(ctx, res.Digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after re-put: %v", err)
	}
}

// TestRebalancerHonorsTombstones is the resurrection acceptance test:
// a tombstone on ANY node — even one that never held the blob — makes
// the rebalancer propagate the delete instead of re-replicating, so a
// blob deleted mid-rebalance never resurfaces.
func TestRebalancerHonorsTombstones(t *testing.T) {
	cl, admin, _, nodes := newElasticCluster(t, 3, cluster.Options{Replicas: 2})
	ctx := t.Context()

	data := makeVBS(t, 41, 5)
	res, err := cl.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	holders := nodesHolding(t, nodes, res.Digest)
	if len(holders) != 2 {
		t.Fatalf("blob on %d node(s), want 2", len(holders))
	}
	isHolder := map[string]bool{}
	for _, h := range holders {
		isHolder[h] = true
	}

	// Tombstone the digest on the one node that does NOT hold it (an
	// absent-delete records the tombstone and answers 404) — the shape
	// a delete fan-out leaves when a copy was in flight.
	for _, n := range nodes {
		if isHolder[n.url] {
			continue
		}
		if err := n.client.DeleteVBS(ctx, res.Digest); server.StatusCode(err) != 404 {
			t.Fatalf("absent delete on %s = %v, want 404", n.url, err)
		}
	}

	if _, err := admin.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance kick: %v", err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if len(nodesHolding(t, nodes, res.Digest)) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tombstoned blob still held by %v", nodesHolding(t, nodes, res.Digest))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := cl.GetVBS(ctx, res.Digest); err == nil {
		t.Fatal("tombstoned blob resurfaced through the gateway")
	}
	if n := metricValue(t, cl.Base(), "vbs_rebalance_tombstones_propagated_total"); n == 0 {
		t.Error("no tombstone propagated by the rebalancer")
	}
}

// TestClusterRetriesCounter pins the per-hop retry satellite: with
// RetryAttempts > 1 a dead node's transport failures are retried with
// backoff (probes and idempotent hops alike) and surface in
// vbs_gateway_retries_total, while reads keep succeeding via failover.
func TestClusterRetriesCounter(t *testing.T) {
	cl, _, _, nodes := newElasticCluster(t, 2, cluster.Options{
		Replicas:      2,
		RetryAttempts: 2,
		RetryBackoff:  time.Millisecond,
	})
	ctx := t.Context()

	data := makeVBS(t, 51, 5)
	res, err := cl.PutVBS(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].kill()

	got, err := cl.GetVBS(ctx, res.Digest)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after kill: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if metricValue(t, cl.Base(), "vbs_gateway_retries_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retries counter never advanced against a dead node")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
