package chaos

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Recipe is one named fault scenario. Run injects faults while the
// workload is live; the engine judges the aftermath with the standard
// conditions afterwards, so a recipe only returns an error when the
// *harness* failed (a node that refuses to restart, no blob to
// corrupt) — invariant violations are the conditions' verdict.
type Recipe struct {
	Name        string
	Description string
	// ErrorBudget is the default client error-rate budget; kill-style
	// recipes tolerate more than pure I/O ones.
	ErrorBudget float64
	Run         func(ctx context.Context, e *Env) error
}

var recipes = map[string]Recipe{}

func register(r Recipe) { recipes[r.Name] = r }

// Lookup finds a recipe by name.
func Lookup(name string) (Recipe, bool) {
	r, ok := recipes[name]
	return r, ok
}

// Names lists the registered recipes, sorted.
func Names() []string {
	out := make([]string, 0, len(recipes))
	for n := range recipes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	register(Recipe{
		Name:        "nodekill",
		Description: "SIGKILL one node under traffic; expect failover, then read-repair back to R replicas after restart",
		ErrorBudget: 0.25,
		Run:         runNodeKill,
	})
	register(Recipe{
		Name:        "diskfull",
		Description: "inject disk write failures on one node; expect gateway failover (5xx-driven), not client 400s",
		ErrorBudget: 0.10,
		Run:         runDiskFull,
	})
	register(Recipe{
		Name:        "corruptblob",
		Description: "flip bytes in an on-disk blob, restart the node; expect quarantine plus re-repair, never a corrupt serve",
		ErrorBudget: 0.25,
		Run:         runCorruptBlob,
	})
	register(Recipe{
		Name:        "churn",
		Description: "repeated kill/restart cycles across nodes under sustained traffic",
		ErrorBudget: 0.30,
		Run:         runChurn,
	})
	register(Recipe{
		Name:        "nodeadd",
		Description: "SIGKILL + forget one node, join a fresh empty one under traffic; expect rebalance back to R and a mid-rebalance delete to stay dead",
		ErrorBudget: 0.25,
		Run:         runNodeAdd,
	})
	register(Recipe{
		Name:        "gwrestart",
		Description: "crash and restart the gateway under traffic; expect every task id held across the restart to unload through the new gateway",
		ErrorBudget: 0.25,
		Run:         runGwRestart,
	})
	register(Recipe{
		Name:        "drain",
		Description: "gracefully drain and remove one node under traffic; expect zero client errors and an emptied node",
		ErrorBudget: 0, // a graceful decommission must be invisible to clients
		Run:         runDrain,
	})
}

// victim picks the node carrying the most acked blobs (so the fault
// actually bites), falling back to the last node.
func victim(ctx context.Context, e *Env) Node {
	best := e.Fleet.Nodes[len(e.Fleet.Nodes)-1]
	bestBlobs := -1
	for _, n := range e.Fleet.Nodes {
		if !n.Alive() {
			continue
		}
		blobs, err := n.Client().ListVBS(ctx)
		if err != nil {
			continue
		}
		if len(blobs) > bestBlobs {
			best, bestBlobs = n, len(blobs)
		}
	}
	return best
}

func runNodeKill(ctx context.Context, e *Env) error {
	// A *re*connect is only well-defined for a stream that connected
	// before the kill, so wait (bounded) until the gateway's stream
	// pool covers the whole fleet — replication traffic warms it
	// within the first few loads.
	streamsWarm := waitStreamsOpen(ctx, e, len(e.Fleet.Nodes))
	v := victim(ctx, e)
	if err := e.KillNode(v); err != nil {
		return err
	}
	// Traffic runs against the degraded fleet: reads must fail over,
	// loads must land on surviving owners.
	Sleep(ctx, e.Cfg.FaultPhase)
	if err := e.RestartNode(v); err != nil {
		return err
	}
	// Post-restart traffic drives the reads whose repair sweeps heal
	// any replica the dead node missed.
	Sleep(ctx, e.Cfg.FaultPhase/2)
	if streamsWarm {
		// The kill cut the victim's replication stream mid-flight; the
		// pool must heal it by reconnecting, never by serving junk.
		e.AddCondition(streamsHealed)
	} else {
		e.recordFault("streams never warmed pre-kill; skipping the streams-healed condition")
	}
	return nil
}

// waitStreamsOpen polls the gateway until its stream pool holds at
// least n live streams, giving up after the fault phase. Returns
// whether the pool warmed in time.
func waitStreamsOpen(ctx context.Context, e *Env, n int) bool {
	deadline := time.Now().Add(e.Cfg.FaultPhase)
	for {
		mctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		samples, err := e.Fleet.Client.Metrics(mctx)
		cancel()
		if open, _ := metrics.Find(samples, "vbs_transport_streams_open", nil); err == nil && open >= float64(n) {
			return true
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return false
		}
		Sleep(ctx, 100*time.Millisecond)
	}
}

func runDiskFull(ctx context.Context, e *Env) error {
	v := victim(ctx, e)
	if err := e.ArmFaults(ctx, v, server.ChaosFaults{FailPuts: true}); err != nil {
		return err
	}
	// Every load routed to the victim now dies with 500 "cannot
	// persist vbs" (store.ErrDisk) — the gateway must fail the task
	// over to another owner, not bounce a 4xx to the client.
	Sleep(ctx, e.Cfg.FaultPhase)
	if err := e.ClearFaults(ctx, v); err != nil {
		return err
	}
	Sleep(ctx, e.Cfg.FaultPhase/2)
	return nil
}

func runCorruptBlob(ctx context.Context, e *Env) error {
	// Pick an acked digest that sits on some node's disk.
	var target Node
	var digest string
	deadline := time.Now().Add(e.Cfg.FaultPhase)
	for target == nil {
		acked := e.Work.Acked()
		for _, n := range e.Fleet.Nodes {
			blobs, err := n.Client().ListVBS(ctx)
			if err != nil {
				continue
			}
			for _, b := range blobs {
				if _, ok := acked[b.Digest]; ok && b.Disk {
					target, digest = n, b.Digest
					break
				}
			}
			if target != nil {
				break
			}
		}
		if target == nil {
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("no acked on-disk blob to corrupt")
			}
			Sleep(ctx, 100*time.Millisecond)
		}
	}
	if err := e.CorruptBlob(target, digest); err != nil {
		return err
	}
	// The node's RAM tier may still hold the healthy copy, so the rot
	// is only observable after a restart: kill -9, restart, and let
	// the boot recovery scan quarantine the bad file. Gateway reads
	// must keep serving the digest byte-identical from the other
	// replica throughout, and read-repair must restore R afterwards.
	if err := e.KillNode(target); err != nil {
		return err
	}
	Sleep(ctx, e.Cfg.FaultPhase/2)
	if err := e.RestartNode(target); err != nil {
		return err
	}
	Sleep(ctx, e.Cfg.FaultPhase/2)
	// Harness sanity: the scan must have quarantined the corrupt file.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	samples, err := target.Client().Metrics(cctx)
	cancel()
	if err != nil {
		return fmt.Errorf("metrics of %s after restart: %w", target.Name(), err)
	}
	q, _ := metrics.Find(samples, "vbs_repo_quarantined_total", nil)
	if q == 0 {
		return fmt.Errorf("%s quarantined nothing after corrupting %.12s", target.Name(), digest)
	}
	e.recordFault("%s quarantined %g blob(s) at boot", target.Name(), q)
	return nil
}

// runNodeAdd is the elastic-membership scenario the cluster must
// survive: lose a node permanently (kill + forget), join a fresh
// empty replacement under live traffic, and delete a blob while the
// rebalancer is mid-flight. Conditions then demand replica sets back
// at R with every ring owner actually holding its digests, and the
// deleted blob dead everywhere — the tombstone must outrun the
// movers.
func runNodeAdd(ctx context.Context, e *Env) error {
	// A doomed blob written through the gateway, outside the
	// workload's acked set so the retrievability condition skips it.
	doomedRaw, err := loadgen.GenTask(e.Cfg.Seed+9991, NodeW, NodeK)
	if err != nil {
		return fmt.Errorf("doomed blob generation: %w", err)
	}
	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	put, err := e.Fleet.Client.PutVBS(pctx, doomedRaw, false)
	cancel()
	if err != nil {
		return fmt.Errorf("put doomed blob: %w", err)
	}
	e.recordFault("put doomed blob %.12s", put.Digest)

	// Lose the busiest node for good.
	v := victim(ctx, e)
	if err := e.KillNode(v); err != nil {
		return err
	}
	if err := e.RemoveMember(ctx, v); err != nil {
		return err
	}
	// Scale back out with an empty node; the rebalancer must populate
	// it while the workload keeps hitting the gateway.
	if _, err := e.AddFreshNode(ctx); err != nil {
		return err
	}
	Sleep(ctx, e.Cfg.FaultPhase/2)
	if err := e.DeleteBlob(ctx, put.Digest); err != nil {
		return fmt.Errorf("mid-rebalance delete: %w", err)
	}
	Sleep(ctx, e.Cfg.FaultPhase/2)

	e.AddCondition(deletedBlobStaysDead(put.Digest))
	e.AddCondition(ownersHoldReplicas)
	return nil
}

// runDrain decommissions the busiest node gracefully: drain it off
// the ring, retire its tasks through the gateway (live references
// veto blob trims), wait for the rebalancer to empty it, then forget
// it. The error budget is zero — clients must never notice.
func runDrain(ctx context.Context, e *Env) error {
	v := victim(ctx, e)
	if err := e.DrainMember(ctx, v); err != nil {
		return err
	}
	deadline := time.Now().Add(e.Cfg.Converge)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Unload every gateway task hosted on the victim; the workload
		// records its own later unloads of these ids as stale, not
		// errors. Re-listing each round catches loads that routed on a
		// pre-drain ring snapshot.
		tctx, tcancel := context.WithTimeout(ctx, 10*time.Second)
		tasks, err := e.Fleet.Client.Tasks(tctx)
		tcancel()
		if err != nil {
			return fmt.Errorf("gateway tasks: %w", err)
		}
		for _, ti := range tasks {
			if ti.Node != v.URL() {
				continue
			}
			uctx, ucancel := context.WithTimeout(ctx, 10*time.Second)
			err := e.Fleet.Client.Unload(uctx, ti.ID)
			ucancel()
			if err != nil && server.StatusCode(err) != 404 {
				return fmt.Errorf("unload task %d off %s: %w", ti.ID, v.Name(), err)
			}
		}
		bctx, bcancel := context.WithTimeout(ctx, 10*time.Second)
		blobs, err := v.Client().ListVBS(bctx)
		bcancel()
		if err != nil {
			return fmt.Errorf("%s vbs listing: %w", v.Name(), err)
		}
		if len(blobs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s still holds %d blob(s) after %s of draining", v.Name(), len(blobs), e.Cfg.Converge)
		}
		e.Fleet.Gateway.Rebalancer().Kick()
		Sleep(ctx, 200*time.Millisecond)
	}
	e.recordFault("%s drained empty", v.Name())
	if err := e.RemoveMember(ctx, v); err != nil {
		return err
	}
	// Keep traffic running on the shrunken fleet for a while.
	Sleep(ctx, e.Cfg.FaultPhase/2)
	e.AddCondition(ownersHoldReplicas)
	return nil
}

// runGwRestart crashes the gateway mid-traffic and serves a fresh one
// on the same address; the ids the workload held at the crash leave
// its unload pool for the heldTasksUnload condition.
func runGwRestart(ctx context.Context, e *Env) error {
	deadline := time.Now().Add(e.Cfg.FaultPhase)
	held := e.Work.takeLoaded()
	for len(held) == 0 && ctx.Err() == nil && time.Now().Before(deadline) {
		Sleep(ctx, 50*time.Millisecond)
		held = e.Work.takeLoaded()
	}
	if len(held) == 0 {
		return fmt.Errorf("workload held no task to carry across the restart")
	}
	e.recordFault("restart gateway holding %d task id(s)", len(held))
	if err := e.Fleet.RestartGateway(ctx); err != nil {
		return err
	}
	Sleep(ctx, e.Cfg.FaultPhase)
	e.AddCondition(heldTasksUnload(held))
	return nil
}

func runChurn(ctx context.Context, e *Env) error {
	cycles := 4
	if e.Cfg.Short {
		cycles = 2
	}
	for i := 0; i < cycles && ctx.Err() == nil; i++ {
		n := e.Fleet.Nodes[i%len(e.Fleet.Nodes)]
		if err := e.KillNode(n); err != nil {
			return err
		}
		Sleep(ctx, e.Cfg.FaultPhase/2)
		if err := e.RestartNode(n); err != nil {
			return err
		}
		Sleep(ctx, e.Cfg.FaultPhase/2)
	}
	return nil
}
