package cluster_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// Task ids are minted by the node (boot instance in the high bits) and
// routed by the gateway from the id alone, so no gateway holds state a
// client's id depends on.

// TestGatewayRestartKeepsTaskIDs: a fresh gateway over the same nodes
// lists every task a stopped one loaded and unloads each by the id the
// first one returned.
func TestGatewayRestartKeepsTaskIDs(t *testing.T) {
	nodes := []*testNode{newNode(t, 1, server.Options{}), newNode(t, 1, server.Options{}), newNode(t, 1, server.Options{})}
	clA, gwA := startGateway(t, nodes, cluster.Options{Replicas: 2})
	var ids []int64
	for seed := int64(1); seed <= 4; seed++ {
		res, err := clA.Load(t.Context(), makeVBS(t, seed, 6), server.LoadRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	gwA.Stop()

	clB, _ := startGateway(t, nodes, cluster.Options{Replicas: 2})
	tasks, err := clB.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	listed := map[int64]bool{}
	for _, ti := range tasks {
		listed[ti.ID] = true
	}
	for _, id := range ids {
		if !listed[id] {
			t.Fatalf("task %d loaded through the first gateway is not listed by the second (%+v)", id, tasks)
		}
		if err := clB.Unload(t.Context(), id); err != nil {
			t.Fatalf("unload %d through the second gateway: %v", id, err)
		}
	}
}

// TestTwoGatewaysShareTaskIDs: two live gateways over one fleet list
// identical tasks, and each unloads the other's.
func TestTwoGatewaysShareTaskIDs(t *testing.T) {
	nodes := []*testNode{newNode(t, 2, server.Options{}), newNode(t, 2, server.Options{})}
	clA, _ := startGateway(t, nodes, cluster.Options{Replicas: 2})
	clB, _ := startGateway(t, nodes, cluster.Options{Replicas: 2})
	a, err := clA.Load(t.Context(), makeVBS(t, 1, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := clB.Load(t.Context(), makeVBS(t, 2, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	la, err := clA.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := clB.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != 2 || !reflect.DeepEqual(la, lb) {
		t.Fatalf("gateways disagree on the fleet's tasks:\nA %+v\nB %+v", la, lb)
	}
	if err := clA.Unload(t.Context(), b.ID); err != nil {
		t.Fatalf("A unloads B's task: %v", err)
	}
	if err := clB.Unload(t.Context(), a.ID); err != nil {
		t.Fatalf("B unloads A's task: %v", err)
	}
	if left, err := clA.Tasks(t.Context()); err != nil || len(left) != 0 {
		t.Fatalf("tasks left after cross unloads: %+v, %v", left, err)
	}
}

// TestGatewayServesOrphanTask: a task placed on a node behind the
// gateway's back — what a load the gateway timed out on leaves — is
// listed under its node's id and unloads through the gateway.
func TestGatewayServesOrphanTask(t *testing.T) {
	cl, _, nodes := newCluster(t, 2, 1, cluster.Options{Replicas: 2})
	orphan, err := nodes[0].client.Load(t.Context(), makeVBS(t, 2, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := cl.Tasks(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != orphan.ID || tasks[0].Node != nodes[0].url || tasks[0].Digest != orphan.Digest {
		t.Fatalf("gateway tasks = %+v, want the orphan %d on %s", tasks, orphan.ID, nodes[0].url)
	}
	if err := cl.Unload(t.Context(), orphan.ID); err != nil {
		t.Fatalf("unload orphan through the gateway: %v", err)
	}
	if remote, err := nodes[0].client.Tasks(t.Context()); err != nil || len(remote) != 0 {
		t.Fatalf("node still lists %+v (%v) after the gateway unload", remote, err)
	}
}

// memberInstance reads one member's boot instance off GET
// /cluster/nodes.
func memberInstance(t *testing.T, admin *cluster.Admin, name string) int64 {
	t.Helper()
	ms, err := admin.Nodes(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms.Nodes {
		if m.Name == name {
			return m.Instance
		}
	}
	t.Fatalf("%s not a member: %+v", name, ms.Nodes)
	return 0
}

// TestGatewayLearnsRestartedNode: a node that restarts between probes
// is routable from its first load reply — the returned id unloads at
// once — while an id from its earlier boot answers 404. The membership
// listing shows the new instance.
func TestGatewayLearnsRestartedNode(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	cl, _ := startGateway(t, []*testNode{n}, cluster.Options{Replicas: 1, ProbeInterval: time.Hour})
	admin := cluster.NewAdmin(cl.Base())
	if got := memberInstance(t, admin, n.url); got == 0 || got != n.srv.Instance() {
		t.Fatalf("member instance %d, node booted as %d", got, n.srv.Instance())
	}
	old, err := cl.Load(t.Context(), makeVBS(t, 1, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	first := n.srv.Instance()

	n.restart(t)
	res, err := cl.Load(t.Context(), makeVBS(t, 2, 6), server.LoadRequest{})
	if err != nil {
		t.Fatalf("load after node restart: %v", err)
	}
	if got := memberInstance(t, admin, n.url); got != n.srv.Instance() || got == first {
		t.Fatalf("member instance %d after restart, want the new boot's %d (first boot %d)", got, n.srv.Instance(), first)
	}
	if err := cl.Unload(t.Context(), res.ID); err != nil {
		t.Fatalf("unload by the id the restarted node returned: %v", err)
	}
	if err := cl.Unload(t.Context(), old.ID); server.StatusCode(err) != http.StatusNotFound {
		t.Fatalf("unload of an id from the earlier boot = %v, want 404", err)
	}
}

// TestRegistryRefusesDuplicateInstance: a member whose /healthz claims
// another live member's boot instance is refused with a probe error,
// and ids keep routing to the member that held the instance first.
func TestRegistryRefusesDuplicateInstance(t *testing.T) {
	n := newNode(t, 1, server.Options{})
	inst := n.srv.Instance()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(server.HealthResponse{Status: "ok", Instance: inst})
	}))
	t.Cleanup(stub.Close)
	cl, _ := startGateway(t, []*testNode{n}, cluster.Options{Replicas: 1, ProbeInterval: 20 * time.Millisecond})
	admin := cluster.NewAdmin(cl.Base())
	if _, err := admin.AddNode(t.Context(), stub.URL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ms, err := admin.Nodes(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		refused := false
		for _, m := range ms.Nodes {
			if m.Name == stub.URL && m.State == "down" && m.Instance == 0 && strings.Contains(m.LastError, "instance") {
				refused = true
			}
		}
		if refused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("duplicate instance never refused: %+v", ms.Nodes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := memberInstance(t, admin, n.url); got != inst {
		t.Fatalf("first holder's instance = %d, want %d", got, inst)
	}
	res, err := n.client.Load(t.Context(), makeVBS(t, 3, 6), server.LoadRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unload(t.Context(), res.ID); err != nil {
		t.Fatalf("unload routes to the first holder: %v", err)
	}
}
