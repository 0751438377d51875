package cluster_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestGatewayBatch drives POST /tasks:batch through the gateway: the
// batch is partitioned across owner nodes, per-op results come back
// in order with fleet fabric ids, and every loaded blob reaches its
// full replica set.
func TestGatewayBatch(t *testing.T) {
	c, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	var datas [][]byte
	var ops []server.BatchOp
	for i := 0; i < 4; i++ {
		data := makeVBS(t, int64(100+i), 6)
		datas = append(datas, data)
		ops = append(ops, server.BatchLoadOp(data))
	}
	resp, err := c.Batch(t.Context(), server.BatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(ops))
	}
	fabrics, err := c.Fabrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	fleet := map[int]bool{}
	for _, f := range fabrics {
		fleet[f.Index] = true
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusCreated || r.Load == nil {
			t.Fatalf("load %d: status %d error %q", i, r.Status, r.Error)
		}
		if !fleet[r.Load.Fabric] {
			t.Fatalf("load %d: fabric %d is not a fleet fabric id %v", i, r.Load.Fabric, fleet)
		}
	}

	// Replication is pipelined (asynchronous) now: poll until every
	// digest reaches its replica factor.
	for i, r := range resp.Results {
		waitReplicas(t, nodes, r.Load.Digest, 2)
		if want := repo.DigestOf(datas[i]).String(); r.Load.Digest != want {
			t.Fatalf("load %d: digest %s, want %s", i, r.Load.Digest, want)
		}
	}

	// Mixed follow-up batch: a get, a real unload, a bogus unload.
	id := resp.Results[0].Load.ID
	digest := resp.Results[0].Load.Digest
	resp, err = c.Batch(t.Context(), server.BatchRequest{Ops: []server.BatchOp{
		{Op: "get", Digest: digest},
		{Op: "unload", ID: id},
		{Op: "unload", ID: 424242},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{http.StatusOK, http.StatusNoContent, http.StatusNotFound}
	for i, r := range resp.Results {
		if r.Status != want[i] {
			t.Fatalf("op %d: status %d (error %q), want %d", i, r.Status, r.Error, want[i])
		}
	}
	got, err := base64.StdEncoding.DecodeString(resp.Results[0].VBS)
	if err != nil || !bytes.Equal(got, datas[0]) {
		t.Fatalf("batched get returned wrong bytes (err %v)", err)
	}

	// The unloaded task is gone from the fleet listing.
	tasks, err := c.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range tasks {
		if ti.ID == id {
			t.Fatalf("task %d still listed after batched unload", id)
		}
	}

	// An empty batch is refused as a whole.
	if _, err := c.Batch(t.Context(), server.BatchRequest{}); server.StatusCode(err) != http.StatusBadRequest {
		t.Fatalf("empty batch: got %v, want 400", err)
	}
}

// TestGatewayStreamsEngage proves the data plane actually runs over
// the persistent streams: after a few loads the gateway's transport
// metrics show open streams and sent frames, and replication still
// converges with zero failures recorded.
func TestGatewayStreamsEngage(t *testing.T) {
	c, _, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	for i := 0; i < 6; i++ {
		data := makeVBS(t, int64(500+i), 6)
		resp, err := c.Load(context.Background(), data, server.LoadRequest{})
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		waitReplicas(t, nodes, resp.Digest, 2)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		open := metricValue(t, c.Base(), "vbs_transport_streams_open")
		sent := metricValue(t, c.Base(), "vbs_transport_frames_sent_total")
		if open >= 1 && sent >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams never engaged: open=%v sent=%v", open, sent)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayBatchFramesRaw pins the batch RPC's FlagRaw in both
// directions: a mixed batch over live streams moves no flate bytes on
// the gateway or on either node, while raw bytes grow by at least the
// containers carried — loads on the gateway's request frames, gets on
// the nodes' reply frames.
func TestGatewayBatchFramesRaw(t *testing.T) {
	c, _, nodes := newCluster(t, 2, 2, cluster.Options{Replicas: 2})
	const (
		flated = "vbs_transport_sent_compressed_bytes_total"
		raw    = "vbs_transport_sent_raw_bytes_total"
	)
	batch := func(ops []server.BatchOp, want []int) server.BatchResponse {
		t.Helper()
		resp, err := c.Batch(t.Context(), server.BatchRequest{Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Results {
			if r.Status != want[i] {
				t.Fatalf("op %d: status %d (error %q), want %d", i, r.Status, r.Error, want[i])
			}
		}
		return resp
	}
	newLoads := func(seed int64) (ops []server.BatchOp, want []int, datas [][]byte, size int) {
		for i := int64(0); i < 4; i++ {
			data := makeVBS(t, seed+i, 6)
			datas = append(datas, data)
			ops = append(ops, server.BatchLoadOp(data))
			want = append(want, http.StatusCreated)
			size += len(data)
		}
		return ops, want, datas, size
	}

	// Streams open on first use: a warm-up batch dials them, and its
	// blobs are what the measured batch gets back and unloads.
	warmOps, warmWant, warm, getSize := newLoads(700)
	placed := batch(warmOps, warmWant)
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range nodes {
		for metricValue(t, n.url, "vbs_transport_streams_open") < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("stream to %s never opened", n.url)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, r := range placed.Results {
		waitReplicas(t, nodes, r.Load.Digest, 2)
	}

	bases := []string{c.Base()}
	for _, n := range nodes {
		bases = append(bases, n.url)
	}
	before := map[string][2]float64{}
	for _, b := range bases {
		before[b] = [2]float64{metricValue(t, b, flated), metricValue(t, b, raw)}
	}

	ops, want, _, loadSize := newLoads(800)
	for i := range warm {
		ops = append(ops,
			server.BatchOp{Op: "get", Digest: repo.DigestOf(warm[i]).String()},
			server.BatchOp{Op: "unload", ID: placed.Results[i].Load.ID})
		want = append(want, http.StatusOK, http.StatusNoContent)
	}
	batch(ops, want)

	// The sender books a frame after writing it, which can trail the
	// reply: poll the raw growth, then hold the flate counters to zero.
	for {
		gwRaw := metricValue(t, c.Base(), raw) - before[c.Base()][1]
		var nodeRaw float64
		for _, n := range nodes {
			nodeRaw += metricValue(t, n.url, raw) - before[n.url][1]
		}
		if gwRaw >= float64(loadSize) && nodeRaw >= float64(getSize) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("raw bytes grew %v on the gateway (loads %d B), %v on the nodes (gets %d B)",
				gwRaw, loadSize, nodeRaw, getSize)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, b := range bases {
		if got := metricValue(t, b, flated); got != before[b][0] {
			t.Errorf("%s: %s moved %v -> %v", b, flated, before[b][0], got)
		}
	}
}

// TestGatewayNodesWithoutStreams pins the per-call HTTP fallback on
// the reason it exists: nodes that cannot speak streams (an older vbsd
// answers GET /stream with 404). A batch load, its replication and a
// read-repair copy all land over HTTP, and no stream ever opens.
func TestGatewayNodesWithoutStreams(t *testing.T) {
	nodes := make([]*testNode, 3)
	for i := range nodes {
		nodes[i] = newNode(t, 1, server.Options{}, withoutStreams)
	}
	c, gw := startGateway(t, nodes, cluster.Options{Replicas: 2})

	data := makeVBS(t, 900, 6)
	resp, err := c.Batch(t.Context(), server.BatchRequest{Ops: []server.BatchOp{server.BatchLoadOp(data)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Status != http.StatusCreated {
		t.Fatalf("load: %+v", resp.Results[0])
	}
	waitReplicas(t, nodes, resp.Results[0].Load.Digest, 2)

	// A blob only a non-owner holds is served by scatter and healed
	// onto both owners through putBlobNode's HTTP path.
	orphan := makeVBS(t, 901, 6)
	d := repo.DigestOf(orphan)
	owners := gw.Ring().Lookup(d, 2)
	var outsider *testNode
	for _, n := range nodes {
		if !slices.Contains(owners, n.url) {
			outsider = n
		}
	}
	if _, err := outsider.client.PutVBS(t.Context(), orphan, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetVBS(t.Context(), d.String()); err != nil {
		t.Fatalf("get via scatter fallback: %v", err)
	}
	waitReplicas(t, nodes, d.String(), 3)

	if open := metricValue(t, c.Base(), "vbs_transport_streams_open"); open != 0 {
		t.Fatalf("gateway opened %v stream(s) to nodes without GET /stream", open)
	}
}

// withoutStreams answers GET /stream with 404, as a vbsd that predates
// the frame streams does.
func withoutStreams(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == transport.DefaultPath {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// waitReplicas polls until the digest is held by at least want nodes.
func waitReplicas(t *testing.T, nodes []*testNode, digest string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(nodesHolding(t, nodes, digest)) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("digest %s never reached %d replicas (on %v)",
				digest, want, nodesHolding(t, nodes, digest))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricValue reads one sample from a daemon's /metrics, matching the
// labels given as name, value pairs (0 when absent).
func metricValue(t *testing.T, base, name string, labels ...string) float64 {
	t.Helper()
	samples, err := server.NewClient(base, nil).Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i+1 < len(labels); i += 2 {
		want[labels[i]] = labels[i+1]
	}
	v, _ := metrics.Find(samples, name, want)
	return v
}
