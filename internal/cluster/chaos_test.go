package cluster_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/repo"
	"repro/internal/server"
)

// TestGatewayAllReplicasDown503: when every backend is gone, blob
// reads and loads must fail fast with a clear 503 — not a generic 502
// and never a hang. Regression for the chaos nodekill worst case.
func TestGatewayAllReplicasDown503(t *testing.T) {
	cl, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})
	data := makeVBS(t, 71, 10)
	put, err := cl.PutVBS(context.Background(), data, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.kill()
	}

	_, err = cl.GetVBS(t.Context(), put.Digest)
	if code := server.StatusCode(err); code != 503 {
		t.Fatalf("GetVBS with all nodes down: %v (code %d), want 503", err, code)
	}
	if msg := server.ErrorMessage(err); !strings.Contains(msg, "no replica") {
		t.Fatalf("GetVBS 503 message not diagnostic: %q", msg)
	}

	_, err = cl.Load(t.Context(), data, server.LoadRequest{})
	if code := server.StatusCode(err); code != 503 {
		t.Fatalf("Load with all nodes down: %v (code %d), want 503", err, code)
	}
}

// TestGatewayReadRepairConvergence pins the invariant the nodekill
// chaos recipe checks, property-style: whichever single replica loses
// a blob — primary or any secondary — gateway reads bring the replica
// count back to R.
func TestGatewayReadRepairConvergence(t *testing.T) {
	const replicas = 2
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: replicas})
	byURL := make(map[string]*testNode, len(nodes))
	for _, n := range nodes {
		byURL[n.url] = n
	}

	for victim := 0; victim < replicas; victim++ {
		data := makeVBS(t, int64(100+victim), 10)
		put, err := cl.PutVBS(context.Background(), data, false)
		if err != nil {
			t.Fatal(err)
		}
		holders := nodesHolding(t, nodes, put.Digest)
		if len(holders) != replicas {
			t.Fatalf("victim %d: blob on %d node(s) after put, want %d", victim, len(holders), replicas)
		}

		// Delete the blob from one replica directly (the node's own
		// API, behind the gateway's back) — replica loss in miniature.
		if err := byURL[holders[victim]].client.DeleteVBS(t.Context(), put.Digest); err != nil {
			t.Fatalf("victim %d: node-local delete: %v", victim, err)
		}
		if h := nodesHolding(t, nodes, put.Digest); len(h) != replicas-1 {
			t.Fatalf("victim %d: blob on %d node(s) after delete, want %d", victim, len(h), replicas-1)
		}

		// N gateway reads must serve byte-identical data and converge
		// the replica set back to R. The repair is asynchronous, so
		// poll with a deadline.
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err := cl.GetVBS(t.Context(), put.Digest)
			if err != nil {
				t.Fatalf("victim %d: GetVBS during repair: %v", victim, err)
			}
			if string(got) != string(data) {
				t.Fatalf("victim %d: gateway served %d bytes, want %d byte-identical", victim, len(got), len(data))
			}
			if len(nodesHolding(t, nodes, put.Digest)) == replicas {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("victim %d: replica count did not converge to %d; holders=%v",
					victim, replicas, nodesHolding(t, nodes, put.Digest))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The sweeps that found nothing missing must not count as repairs.
	repairs := metricValue(t, cl.Base(), "vbs_gateway_read_repairs_total")
	checks := metricValue(t, cl.Base(), "vbs_gateway_repair_checks_total")
	if repairs < replicas {
		t.Fatalf("read repairs = %v, want >= %d", repairs, replicas)
	}
	if checks < repairs {
		t.Fatalf("repair checks (%v) < read repairs (%v)", checks, repairs)
	}
	_ = gw
}

// TestGatewayRepairDoesNotResurrectDeleted: a gateway DELETE followed
// by reads of other blobs must not re-replicate the deleted digest
// (the repair sweep anchor-checks the serving node).
func TestGatewayRepairDoesNotResurrectDeleted(t *testing.T) {
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})
	data := makeVBS(t, 131, 10)
	put, err := cl.PutVBS(context.Background(), data, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reads before the delete may schedule sweeps; let them drain via
	// Stop at cleanup. Delete through the gateway: every node drops it.
	if _, err := cl.GetVBS(t.Context(), put.Digest); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteVBS(t.Context(), put.Digest); err != nil {
		t.Fatalf("gateway delete: %v", err)
	}
	gw.Stop() // drain any in-flight sweep before checking
	if h := nodesHolding(t, nodes, put.Digest); len(h) != 0 {
		t.Fatalf("deleted blob resurrected on %v", h)
	}
}

// TestGatewayRepairSpreadsDelete: one owner still holds a digest while
// another answers 410 (deleted on that node alone). A read serves the
// surviving copy, and its repair sweep spreads the delete
// (propagateDelete) instead of healing: afterwards no node serves it.
func TestGatewayRepairSpreadsDelete(t *testing.T) {
	nodes := make([]*testNode, 3)
	for i := range nodes {
		nodes[i] = newNode(t, 1, server.Options{DataDir: t.TempDir()})
	}
	cl, gw := startGateway(t, nodes, cluster.Options{Replicas: 2})
	data := makeVBS(t, 141, 6)
	put, err := cl.PutVBS(t.Context(), data, false)
	if err != nil {
		t.Fatal(err)
	}
	owners := gw.Ring().Lookup(repo.DigestOf(data), 2)
	for _, n := range nodes {
		if n.url == owners[1] {
			if err := n.client.DeleteVBS(t.Context(), put.Digest); err != nil {
				t.Fatalf("node-local delete: %v", err)
			}
		}
	}
	if h := nodesHolding(t, nodes, put.Digest); len(h) != 1 || h[0] != owners[0] {
		t.Fatalf("holders before the read = %v, want only %s", h, owners[0])
	}
	if _, err := cl.GetVBS(t.Context(), put.Digest); err != nil {
		t.Fatalf("read of the surviving copy: %v", err)
	}
	gw.Stop() // drains the repair sweep the read scheduled
	if h := nodesHolding(t, nodes, put.Digest); len(h) != 0 {
		t.Fatalf("delete not spread: %v still hold %.12s", h, put.Digest)
	}
	for _, n := range nodes {
		if _, err := n.client.GetVBS(t.Context(), put.Digest); server.StatusCode(err) != http.StatusGone {
			t.Errorf("%s serves the deleted digest: %v, want 410", n.url, err)
		}
	}
	if got := metricValue(t, cl.Base(), "vbs_gateway_tombstone_sweeps_total"); got < 1 {
		t.Errorf("tombstone sweeps = %v, want >= 1", got)
	}
}
