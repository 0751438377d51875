package cluster_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/repo"
	"repro/internal/server"
)

// TestGatewayLoadReplicatesAndServesThroughFailover is the acceptance
// scenario: tasks loaded through the gateway with -replicas 2 land on
// two nodes, and after killing any single node every digest is still
// retrievable byte-identical through the gateway — with the
// *unchanged* server.Client.
func TestGatewayLoadReplicatesAndServesThroughFailover(t *testing.T) {
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	containers := map[string][]byte{}
	for seed := int64(1); seed <= 4; seed++ {
		data := makeVBS(t, seed, 6)
		res, err := cl.Load(t.Context(), data, server.LoadRequest{})
		if err != nil {
			t.Fatalf("load seed %d: %v", seed, err)
		}
		if res.Digest == "" {
			t.Fatalf("load seed %d returned no digest", seed)
		}
		containers[res.Digest] = data
	}

	// Write-through replication: every digest on exactly 2 nodes.
	for digest := range containers {
		if holders := nodesHolding(t, nodes, digest); len(holders) != 2 {
			t.Fatalf("digest %s on %d node(s) %v, want 2", digest[:12], len(holders), holders)
		}
	}

	// Byte-identical serving before any failure.
	for digest, want := range containers {
		got, err := cl.GetVBS(t.Context(), digest)
		if err != nil {
			t.Fatalf("get %s: %v", digest[:12], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest %s served differently", digest[:12])
		}
	}

	// Kill one node; every digest must still serve byte-identical.
	nodes[1].kill()
	for digest, want := range containers {
		got, err := cl.GetVBS(t.Context(), digest)
		if err != nil {
			t.Fatalf("get %s after kill: %v", digest[:12], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest %s served differently after kill", digest[:12])
		}
	}

	// The membership listing and /metrics reflect the topology and
	// traffic.
	ms, err := cluster.NewAdmin(cl.Base()).Nodes(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Nodes) != 3 {
		t.Fatalf("/cluster/nodes lists %d nodes", len(ms.Nodes))
	}
	if r := metricValue(t, cl.Base(), "vbs_cluster_replicas"); r != 2 || ms.RingVersion == "" {
		t.Errorf("replicas = %v, ring version %q", r, ms.RingVersion)
	}
	proxied := metricValue(t, cl.Base(), "vbs_gateway_proxied_total")
	replicated := metricValue(t, cl.Base(), "vbs_gateway_replicated_total")
	if proxied == 0 || replicated == 0 {
		t.Errorf("counters not advancing: proxied %v, replicated %v", proxied, replicated)
	}

	// A digest that was primaried on the killed node requires at
	// least one failover by now; loads on live nodes must keep
	// working too.
	if _, err := cl.Load(t.Context(), makeVBS(t, 9, 6), server.LoadRequest{}); err != nil {
		t.Fatalf("load after kill: %v", err)
	}
	_ = gw
}

// TestGatewayTaskLifecycle: list/relocate/unload proxy to the owning
// node and present fleet-wide identifiers.
func TestGatewayTaskLifecycle(t *testing.T) {
	cl, _, nodes := newCluster(t, 3, 2, cluster.Options{Replicas: 2})

	data := makeVBS(t, 11, 6)
	res, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}

	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != res.ID {
		t.Fatalf("tasks = %+v", tasks)
	}
	if tasks[0].Node == "" {
		t.Error("merged task listing missing node name")
	}
	if tasks[0].Fabric != res.Fabric {
		t.Errorf("listing fabric %d, load reported %d", tasks[0].Fabric, res.Fabric)
	}

	moved, err := cl.Relocate(t.Context(), res.ID, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moved.X != 8 || moved.Y != 8 || moved.ID != res.ID {
		t.Errorf("relocated = %+v", moved)
	}

	// The merged fabric listing covers the whole fleet with distinct
	// global indices and node attribution.
	fabrics, err := cl.Fabrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(fabrics) != 6 {
		t.Fatalf("merged fabric listing has %d entries, want 6", len(fabrics))
	}
	seen := map[int]bool{}
	for _, f := range fabrics {
		if seen[f.Index] {
			t.Fatalf("duplicate fleet fabric id %d", f.Index)
		}
		seen[f.Index] = true
		if f.Node == "" {
			t.Fatal("fabric listing missing node attribution")
		}
	}

	// Compaction routes by fleet fabric id.
	if _, err := cl.Compact(t.Context(), fabrics[len(fabrics)-1].Index); err != nil {
		t.Fatalf("compact by fleet fabric id: %v", err)
	}

	if err := cl.Unload(t.Context(), res.ID); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unload(t.Context(), res.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("double unload error = %v", err)
	}
	for _, n := range nodes {
		remote, err := n.client.Tasks(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if len(remote) != 0 {
			t.Fatalf("node %s still holds %d task(s) after gateway unload", n.url, len(remote))
		}
	}
}

// TestGatewayPinnedFabric: a fleet fabric id names one fabric of one
// node for good. Pinning it routes the load to that fabric, and
// removing another member renumbers no fabric and no task.
func TestGatewayPinnedFabric(t *testing.T) {
	cl, _, nodes := newCluster(t, 3, 2, cluster.Options{Replicas: 1})
	ctx := t.Context()

	fabrics, err := cl.Fabrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fabrics) != 6 {
		t.Fatalf("fleet lists %d fabrics, want 6", len(fabrics))
	}
	// pinLands loads pinned to f and checks the reply names f and the
	// task sits on f's node, on f's local fabric.
	pinLands := func(f server.FabricInfo, seed int64) server.LoadResponse {
		t.Helper()
		pin := f.Index
		res, err := cl.Load(ctx, makeVBS(t, seed, 6), server.LoadRequest{Fabric: &pin})
		if err != nil {
			t.Fatalf("load pinned to fabric %d: %v", pin, err)
		}
		if res.Fabric != pin {
			t.Fatalf("pinned load reported fabric %d, want %d", res.Fabric, pin)
		}
		remote, err := server.NewClient(f.Node, nil).Tasks(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range remote {
			if ti.ID == res.ID {
				if local := pin & (1<<server.InstanceShift - 1); ti.Fabric != local {
					t.Fatalf("task %d on local fabric %d of %s, want %d", res.ID, ti.Fabric, f.Node, local)
				}
				return res
			}
		}
		t.Fatalf("task %d pinned to fabric %d not on its node %s", res.ID, pin, f.Node)
		return res
	}
	for i, f := range fabrics {
		pinLands(f, int64(21+i))
	}
	before, err := cl.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}

	gone := nodes[0].url
	if _, err := cluster.NewAdmin(cl.Base()).RemoveNode(ctx, gone); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Fabrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var kept []server.FabricInfo
	for _, f := range fabrics {
		if f.Node != gone {
			kept = append(kept, f)
		}
	}
	if len(after) != len(kept) {
		t.Fatalf("after removal the fleet lists %d fabrics, want %d", len(after), len(kept))
	}
	for i := range kept {
		if after[i].Index != kept[i].Index || after[i].Node != kept[i].Node {
			t.Fatalf("fabric %d of %s renamed to %d of %s", kept[i].Index, kept[i].Node, after[i].Index, after[i].Node)
		}
	}
	tasks, err := cl.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []server.TaskInfo
	for _, ti := range before {
		if ti.Node != gone {
			survivors = append(survivors, ti)
		}
	}
	if len(tasks) != len(survivors) {
		t.Fatalf("after removal the fleet lists %d tasks, want %d", len(tasks), len(survivors))
	}
	for i := range survivors {
		if tasks[i] != survivors[i] {
			t.Fatalf("task %+v became %+v after another member left", survivors[i], tasks[i])
		}
	}
	pinLands(kept[len(kept)-1], 41)

	for _, f := range fabrics {
		if f.Node != gone {
			continue
		}
		pin := f.Index
		if _, err := cl.Load(ctx, makeVBS(t, 42, 6), server.LoadRequest{Fabric: &pin}); server.StatusCode(err) != http.StatusBadRequest {
			t.Errorf("load pinned to a removed member's fabric = %v, want 400", err)
		}
	}
	if _, err := cl.Load(ctx, makeVBS(t, 43, 6), server.LoadRequest{Fabric: &[]int{99}[0]}); server.StatusCode(err) != http.StatusBadRequest {
		t.Errorf("load pinned to an unknown fabric = %v, want 400", err)
	}
}

// TestGatewayReadRepair: a blob living only on a non-owner node (an
// out-of-band import) is found by the scatter fallback and healed
// onto its ring owners.
func TestGatewayReadRepair(t *testing.T) {
	cl, gw, nodes := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	data := makeVBS(t, 31, 6)
	d := repo.DigestOf(data)
	owners := gw.Ring().Lookup(d, 2)

	// Pick a node outside the replica set and seed the blob there.
	var outsider *testNode
	for _, n := range nodes {
		if n.url != owners[0] && n.url != owners[1] {
			outsider = n
			break
		}
	}
	if outsider == nil {
		t.Fatal("no node outside a 2-of-3 replica set?")
	}
	if _, err := outsider.client.PutVBS(context.Background(), data, false); err != nil {
		t.Fatal(err)
	}

	got, err := cl.GetVBS(t.Context(), d.String())
	if err != nil {
		t.Fatalf("get via scatter fallback: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scatter fallback served different bytes")
	}

	// Read-repair runs off the reply path; poll until it lands on
	// the owners.
	deadline := time.Now().Add(5 * time.Second)
	for {
		holdSet := map[string]bool{}
		for _, h := range nodesHolding(t, nodes, d.String()) {
			holdSet[h] = true
		}
		healed := true
		for _, o := range owners {
			healed = healed && holdSet[o]
		}
		if healed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owners %v not healed by read-repair (holders %v)",
				owners, nodesHolding(t, nodes, d.String()))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ReadRepairs is bumped only after the repair write returns, which
	// can trail the owners already holding the blob: poll, don't read once.
	for {
		fallbacks := metricValue(t, cl.Base(), "vbs_gateway_scatter_fallbacks_total")
		repairs := metricValue(t, cl.Base(), "vbs_gateway_read_repairs_total")
		if fallbacks > 0 && repairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scatter fallbacks = %v, read repairs = %v", fallbacks, repairs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayMaxBodyBytes: the gateway bounds JSON bodies exactly like
// a daemon: one byte past server.DefaultMaxBodyBytes is a 413 before
// any node is called. The body is generated as it streams.
func TestGatewayMaxBodyBytes(t *testing.T) {
	cl, _, _ := newCluster(t, 1, 1, cluster.Options{Replicas: 1})

	head, tail := `{"vbs":"`, `"}`
	fill := server.DefaultMaxBodyBytes + 1 - int64(len(head)+len(tail))
	body := io.MultiReader(strings.NewReader(head), io.LimitReader(fillReader('A'), fill), strings.NewReader(tail))
	resp, err := http.Post(cl.Base()+"/tasks", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if _, err := cl.Load(t.Context(), makeVBS(t, 5, 6), server.LoadRequest{}); err != nil {
		t.Fatalf("in-bound load: %v", err)
	}
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestGatewayListVBSMergesReplicas: the merged blob listing reports
// one row per digest with a replica count.
func TestGatewayListVBSMergesReplicas(t *testing.T) {
	cl, _, _ := newCluster(t, 3, 1, cluster.Options{Replicas: 2})

	data := makeVBS(t, 41, 6)
	res, err := cl.Load(t.Context(), data, server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Loading the identical container again deduplicates fleet-wide.
	if _, err := cl.Load(t.Context(), data, server.LoadRequest{}); err != nil {
		t.Fatal(err)
	}

	blobs, err := cl.ListVBS(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("merged listing has %d rows, want 1", len(blobs))
	}
	if blobs[0].Digest != res.Digest || blobs[0].Replicas != 2 || blobs[0].Tasks != 2 {
		t.Errorf("merged blob = %+v", blobs[0])
	}

	// Deleting while referenced is vetoed — and the veto must not
	// cost replicas: a parallel fan-out would delete the copy on the
	// task-free replica node before the owner's 409 lands, silently
	// degrading the blob to a single copy (caught driving vbsgw by
	// hand: the next node kill then 502'd a digest that "failed" to
	// delete).
	if err := cl.DeleteVBS(t.Context(), res.Digest); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("delete while referenced = %v, want 409", err)
	}
	blobs, err = cl.ListVBS(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 || blobs[0].Replicas != 2 {
		t.Fatalf("vetoed delete changed the listing: %+v", blobs)
	}
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if err := cl.Unload(t.Context(), task.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.DeleteVBS(t.Context(), res.Digest); err != nil {
		t.Fatalf("delete after unload: %v", err)
	}
	if _, err := cl.GetVBS(t.Context(), res.Digest); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("get after delete = %v, want 404", err)
	}
}

// TestGatewayConcurrentLoads exercises the routing and replication
// paths under the race detector.
func TestGatewayConcurrentLoads(t *testing.T) {
	cl, _, _ := newCluster(t, 3, 2, cluster.Options{Replicas: 2})

	const goroutines = 8
	containers := make([][]byte, goroutines)
	for i := range containers {
		containers[i] = makeVBS(t, int64(100+i%4), 5)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Load(t.Context(), containers[i], server.LoadRequest{})
			if err != nil {
				errs <- err
				return
			}
			if _, err := cl.GetVBS(t.Context(), res.Digest); err != nil {
				errs <- err
				return
			}
			if err := cl.Unload(t.Context(), res.ID); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Errorf("%d task(s) left after concurrent load/unload", len(tasks))
	}
}

// TestGatewayNoStatsEndpoint: /metrics is the gateway's one counter
// surface and GET /cluster/nodes its membership view, so GET /stats
// is not routed.
func TestGatewayNoStatsEndpoint(t *testing.T) {
	cl, _, _ := newCluster(t, 1, 1, cluster.Options{Replicas: 1})
	stats, err := url.JoinPath(cl.Base(), "stats")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(stats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: status %d, want 404", resp.StatusCode)
	}
}

// TestMembersCarryProbeHealth: each GET /cluster/nodes row carries the
// registry's probe health. Once the probe loop has run, every member
// has a last_probe_ms, and a killed member shows the failure.
func TestMembersCarryProbeHealth(t *testing.T) {
	cl, _, nodes := newCluster(t, 2, 1, cluster.Options{Replicas: 1, ProbeInterval: 20 * time.Millisecond})
	admin := cluster.NewAdmin(cl.Base())
	dead := nodes[1].url
	nodes[1].kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ms, err := admin.Nodes(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		probed, failed := 0, false
		for _, m := range ms.Nodes {
			if m.LastProbeMS >= 0 {
				probed++
			}
			if m.Name == dead && m.State != "alive" && m.LastError != "" {
				failed = true
			}
		}
		if probed == len(nodes) && failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("members never showed probe health: %+v", ms.Nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
