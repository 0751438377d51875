package chaos

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// testConfig is the fastest run that still exercises every phase.
func testConfig(t *testing.T) Config {
	return Config{
		Short:      true,
		Workers:    3,
		Tasks:      3,
		Seed:       1,
		Warmup:     300 * time.Millisecond,
		FaultPhase: 600 * time.Millisecond,
		Converge:   25 * time.Second,
		Log:        t.Logf,
	}
}

func newTestFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := NewLocalFleet(t.Context(), t.TempDir(), 3, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("NewLocalFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// runRecipe runs one recipe against a fresh 3-node fleet and fails on
// any harness error or invariant violation.
func runRecipe(t *testing.T, name string) *Report {
	t.Helper()
	f := newTestFleet(t)
	rep, err := Run(context.Background(), f, name, testConfig(t))
	if err != nil {
		t.Fatalf("recipe %s: %v", name, err)
	}
	if !rep.Passed {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("recipe %s: invariant violation:\n%s", name, raw)
	}
	if len(rep.FaultsInjected) == 0 {
		t.Fatalf("recipe %s injected no fault", name)
	}
	if rep.Workload.Ops == 0 || rep.Workload.AckedDigests == 0 {
		t.Fatalf("recipe %s: workload did nothing: %+v", name, rep.Workload)
	}
	for _, c := range rep.Conditions {
		if !c.Passed {
			t.Fatalf("recipe %s: condition %s failed: %s", name, c.Name, c.Error)
		}
	}
	return rep
}

func TestRecipeNodeKill(t *testing.T)    { runRecipe(t, "nodekill") }
func TestRecipeDiskFull(t *testing.T)    { runRecipe(t, "diskfull") }
func TestRecipeCorruptBlob(t *testing.T) { runRecipe(t, "corruptblob") }
func TestRecipeChurn(t *testing.T)       { runRecipe(t, "churn") }
func TestRecipeDrain(t *testing.T)       { runRecipe(t, "drain") }

// TestRecipeGwRestart: a gateway crash and restart mid-traffic loses
// no task id — the new gateway lists and unloads every one the
// workload held.
func TestRecipeGwRestart(t *testing.T) {
	rep := runRecipe(t, "gwrestart")
	for _, c := range rep.Conditions {
		if c.Name == "held-tasks-unload" {
			return
		}
	}
	t.Fatalf("recipe gwrestart did not register condition held-tasks-unload: %+v", rep.Conditions)
}

// TestRecipeNodeAdd is the acceptance scenario for elastic
// membership: SIGKILL one node and join a fresh one under live load —
// replica counts must converge back to R, with zero invariant
// violations and a blob deleted mid-rebalance staying dead.
func TestRecipeNodeAdd(t *testing.T) {
	rep := runRecipe(t, "nodeadd")
	for _, want := range []string{"deleted-blob-stays-dead", "owners-hold-replicas"} {
		found := false
		for _, c := range rep.Conditions {
			if c.Name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("recipe nodeadd did not register condition %s: %+v", want, rep.Conditions)
		}
	}
}

func TestRecipeRegistry(t *testing.T) {
	want := []string{"churn", "corruptblob", "diskfull", "drain", "gwrestart", "nodeadd", "nodekill"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, ok := Lookup("nodekill"); !ok {
		t.Fatal("nodekill not registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus recipe resolved")
	}
}

func TestRunUnknownRecipe(t *testing.T) {
	f := newTestFleet(t)
	if _, err := Run(context.Background(), f, "nope", testConfig(t)); err == nil {
		t.Fatal("unknown recipe did not error")
	}
}

// TestLocalNodeKillRestart pins the node-handle contract the recipes
// build on: a killed node refuses connections, a restarted one serves
// again on the same address with its blobs recovered from disk.
func TestLocalNodeKillRestart(t *testing.T) {
	f := newTestFleet(t)
	n := f.Nodes[0]
	ctx := context.Background()

	inst, err := n.Client().Health(ctx)
	if err != nil || inst == 0 {
		t.Fatalf("healthy node: instance %d, %v", inst, err)
	}
	if err := n.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if n.Alive() {
		t.Fatal("killed node reports alive")
	}
	if _, err := n.Client().Health(ctx); err == nil {
		t.Fatal("killed node still answers")
	}
	url := n.URL()
	if err := n.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if n.URL() != url {
		t.Fatalf("restart changed URL: %s -> %s", url, n.URL())
	}
	if again, err := n.Client().Health(ctx); err != nil || again == inst {
		t.Fatalf("restarted node: instance %d (was %d), %v", again, inst, err)
	}
}
