package chaos

// Invariant conditions: what must hold once the dust settles. The
// engine polls each condition until it passes or the convergence
// deadline lapses — convergence (read-repair, health probing) is
// asynchronous, so a single snapshot would race it.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/server"
)

// Condition is one named invariant check over a settled fleet. Check
// returns nil when the invariant holds right now.
type Condition struct {
	Name  string
	Check func(ctx context.Context, e *Env) error
}

// ConditionResult is one condition's outcome in the report.
type ConditionResult struct {
	Name   string  `json:"name"`
	Passed bool    `json:"passed"`
	Error  string  `json:"error,omitempty"`
	WaitS  float64 `json:"wait_s"`
}

// StandardConditions returns the invariant set every recipe must
// leave intact, in checking order: retrieval first (its reads also
// trigger the repair sweeps replica convergence needs).
func StandardConditions() []Condition {
	return []Condition{
		{"blobs-retrievable", checkBlobsRetrievable},
		{"replicas-converge", checkReplicasConverge},
		{"no-orphaned-occupancy", checkNoOrphanedOccupancy},
		{"no-task-resurrection", checkNoTaskResurrection},
		{"metrics-scrapeable", checkMetricsScrapeable},
		{"error-budget", checkErrorBudget},
	}
}

// checkBlobsRetrievable: every digest the gateway ever acked is
// retrievable through the gateway, byte-identical to what was acked.
func checkBlobsRetrievable(ctx context.Context, e *Env) error {
	acked := e.Work.Acked()
	digests := make([]string, 0, len(acked))
	for d := range acked {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for _, d := range digests {
		data, err := e.Fleet.Client.GetVBS(ctx, d)
		if err != nil {
			return fmt.Errorf("acked digest %.12s not retrievable: %w", d, err)
		}
		if repo.DigestOf(data).String() != d {
			return fmt.Errorf("acked digest %.12s served corrupt bytes", d)
		}
	}
	return nil
}

// checkReplicasConverge: every acked digest sits on min(R, alive)
// nodes. Reads the gateway's merged /vbs listing, whose Replicas
// field counts holders; issues a gateway read for any degraded digest
// so the next poll finds the repair sweep done.
func checkReplicasConverge(ctx context.Context, e *Env) error {
	want := e.Fleet.Replicas
	if alive := e.Fleet.AliveNodes(); alive < want {
		want = alive
	}
	listing, err := e.Fleet.Client.ListVBS(ctx)
	if err != nil {
		return fmt.Errorf("merged vbs listing: %w", err)
	}
	replicas := make(map[string]int, len(listing))
	for _, b := range listing {
		replicas[b.Digest] = b.Replicas
	}
	for d := range e.Work.Acked() {
		if got := replicas[d]; got < want {
			// Nudge: a gateway read schedules the owner-verification
			// sweep that heals the set.
			_, _ = e.Fleet.Client.GetVBS(ctx, d)
			return fmt.Errorf("digest %.12s on %d node(s), want %d", d, got, want)
		}
	}
	return nil
}

// checkNoOrphanedOccupancy: on every alive node, the fabric
// controllers' live-task count matches the task listing — no region
// stays occupied by a task the API no longer knows.
func checkNoOrphanedOccupancy(ctx context.Context, e *Env) error {
	for _, n := range e.Fleet.Nodes {
		if !n.Alive() {
			continue
		}
		fabrics, err := n.Client().Fabrics(ctx)
		if err != nil {
			return fmt.Errorf("%s fabrics: %w", n.Name(), err)
		}
		occupied := 0
		for _, f := range fabrics {
			occupied += f.Tasks
		}
		tasks, err := n.Client().Tasks(ctx)
		if err != nil {
			return fmt.Errorf("%s tasks: %w", n.Name(), err)
		}
		if occupied != len(tasks) {
			return fmt.Errorf("%s: %d task(s) occupying fabrics, %d listed", n.Name(), occupied, len(tasks))
		}
	}
	return nil
}

// checkNoTaskResurrection: no task whose unload the gateway acked is
// listed again.
func checkNoTaskResurrection(ctx context.Context, e *Env) error {
	tasks, err := e.Fleet.Client.Tasks(ctx)
	if err != nil {
		return fmt.Errorf("gateway tasks: %w", err)
	}
	live := make(map[int64]bool, len(tasks))
	for _, t := range tasks {
		live[t.ID] = true
	}
	for _, id := range e.Work.UnloadedTasks() {
		if live[id] {
			return fmt.Errorf("task %d resurrected after acked unload", id)
		}
	}
	return nil
}

// checkMetricsScrapeable: the gateway and at least one alive node
// serve a parseable Prometheus exposition carrying the metric
// families operators alert on. A daemon that survived the fault but
// dropped its scrape endpoint (or a registration bug that emptied a
// family) is an observability outage even when the data plane heals.
func checkMetricsScrapeable(ctx context.Context, e *Env) error {
	gw, err := e.Fleet.Client.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("gateway /metrics: %w", err)
	}
	for _, fam := range []string{
		"vbs_gateway_op_duration_seconds",
		"vbs_cluster_nodes",
		"vbs_cluster_alive_nodes",
		"vbs_rebalance_passes_total",
		"vbs_jobs_running",
		"vbs_transport_streams_open",
		"vbs_transport_frames_sent_total",
	} {
		if !hasFamily(gw, fam) {
			return fmt.Errorf("gateway /metrics missing family %s", fam)
		}
	}
	scraped := false
	for _, n := range e.Fleet.Nodes {
		if !n.Alive() {
			continue
		}
		node, err := n.Client().Metrics(ctx)
		if err != nil {
			return fmt.Errorf("%s /metrics: %w", n.Name(), err)
		}
		for _, fam := range []string{
			"vbs_server_op_duration_seconds",
			"vbs_cache_hits_total",
			"vbs_jobs_running",
			"vbs_transport_streams_open",
			"vbs_transport_frames_received_total",
		} {
			if !hasFamily(node, fam) {
				return fmt.Errorf("%s /metrics missing family %s", n.Name(), fam)
			}
		}
		scraped = true
		break
	}
	if !scraped {
		return fmt.Errorf("no alive node to scrape")
	}
	return nil
}

// hasFamily reports whether any sample belongs to the named family,
// counting a histogram's expanded _bucket/_sum/_count series.
func hasFamily(samples []metrics.Sample, name string) bool {
	for _, s := range samples {
		if s.Name == name {
			return true
		}
		if strings.HasPrefix(s.Name, name) {
			switch strings.TrimPrefix(s.Name, name) {
			case "_bucket", "_sum", "_count":
				return true
			}
		}
	}
	return false
}

// deletedBlobStaysDead builds the recipe condition for a blob deleted
// mid-rebalance: the gateway must answer 404/410, and no alive node
// may hold a copy — a mover resurrecting it means the tombstone was
// ignored.
func deletedBlobStaysDead(digest string) Condition {
	return Condition{
		Name: "deleted-blob-stays-dead",
		Check: func(ctx context.Context, e *Env) error {
			if _, err := e.Fleet.Client.GetVBS(ctx, digest); err == nil {
				return fmt.Errorf("deleted blob %.12s still served by the gateway", digest)
			} else if sc := server.StatusCode(err); sc != 404 && sc != 410 {
				return fmt.Errorf("deleted blob %.12s: unexpected gateway reply: %w", digest, err)
			}
			for _, n := range e.Fleet.Nodes {
				if !n.Alive() {
					continue
				}
				blobs, err := n.Client().ListVBS(ctx)
				if err != nil {
					return fmt.Errorf("%s vbs listing: %w", n.Name(), err)
				}
				for _, b := range blobs {
					if b.Digest == digest {
						return fmt.Errorf("deleted blob %.12s resurfaced on %s", digest, n.Name())
					}
				}
			}
			return nil
		},
	}
}

// ownersHoldReplicas: every alive ring owner of every acked digest
// actually holds a copy. Stronger than replicas-converge after a
// membership change — the count can be satisfied by stale holders
// while a freshly joined node still owns digests it never received.
// Surplus copies on non-owners are allowed: live task references
// legitimately veto their trim.
var ownersHoldReplicas = Condition{
	Name: "owners-hold-replicas",
	Check: func(ctx context.Context, e *Env) error {
		ring := e.Fleet.Gateway.Ring()
		byURL := make(map[string]Node, len(e.Fleet.Nodes))
		holders := make(map[string]map[string]bool, len(e.Fleet.Nodes))
		for _, n := range e.Fleet.Nodes {
			byURL[n.URL()] = n
			if !n.Alive() {
				continue
			}
			blobs, err := n.Client().ListVBS(ctx)
			if err != nil {
				return fmt.Errorf("%s vbs listing: %w", n.Name(), err)
			}
			set := make(map[string]bool, len(blobs))
			for _, b := range blobs {
				set[b.Digest] = true
			}
			holders[n.URL()] = set
		}
		for ds := range e.Work.Acked() {
			d, err := repo.ParseDigest(ds)
			if err != nil {
				return err
			}
			for _, owner := range ring.Lookup(d, e.Fleet.Replicas) {
				n := byURL[owner]
				if n == nil || !n.Alive() {
					continue
				}
				if !holders[owner][ds] {
					return fmt.Errorf("owner %s of %.12s does not hold it yet", n.Name(), ds)
				}
			}
		}
		return nil
	},
}

// heldTasksUnload builds the gwrestart condition: every task id the
// workload held across a gateway restart unloads through the new
// gateway with 204. Retired ids stay retired across polls.
func heldTasksUnload(held []int64) Condition {
	return Condition{Name: "held-tasks-unload", Check: func(ctx context.Context, e *Env) error {
		for ; len(held) > 0; held = held[1:] {
			if err := e.Fleet.Client.Unload(ctx, held[0]); err != nil {
				return fmt.Errorf("task %d held across the restart: %w", held[0], err)
			}
		}
		return nil
	}}
}

// streamsHealed: after a kill-and-restart the gateway's persistent
// data-plane streams recovered on their own. The streams-open gauge
// proves the pool is live again, and the reconnect counter proves the
// recovery went through the stream's redial path — the killed node's
// stream was cut mid-flight and came back, with nothing replayed
// corruptly (corrupt serves are independently fatal in
// checkErrorBudget).
var streamsHealed = Condition{
	Name: "streams-healed",
	Check: func(ctx context.Context, e *Env) error {
		samples, err := e.Fleet.Client.Metrics(ctx)
		if err != nil {
			return fmt.Errorf("gateway /metrics: %w", err)
		}
		if open, _ := metrics.Find(samples, "vbs_transport_streams_open", nil); open < 1 {
			return fmt.Errorf("no live gateway stream (open=%g)", open)
		}
		if rec, _ := metrics.Find(samples, "vbs_transport_reconnects_total", nil); rec < 1 {
			return fmt.Errorf("no stream reconnect recorded — the killed node's stream never re-dialed")
		}
		return nil
	},
}

// checkErrorBudget: the client-visible error rate stayed inside the
// recipe's budget, and no read ever returned corrupt bytes.
func checkErrorBudget(ctx context.Context, e *Env) error {
	s := e.Work.Stats()
	if s.CorruptServes > 0 {
		return fmt.Errorf("%d corrupt serve(s) — never acceptable", s.CorruptServes)
	}
	if s.Ops == 0 {
		return fmt.Errorf("workload completed no operation")
	}
	if s.ErrorRate > e.Cfg.ErrorBudget {
		return fmt.Errorf("error rate %.3f (%d/%d ops, last: %s) exceeds budget %.3f",
			s.ErrorRate, s.Errors, s.Ops, s.LastError, e.Cfg.ErrorBudget)
	}
	return nil
}

// pollCondition re-evaluates a condition until it passes or the
// deadline lapses, returning the result and the time it took.
func pollCondition(ctx context.Context, e *Env, c Condition, deadline time.Duration) ConditionResult {
	start := time.Now()
	var last error
	for {
		cctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		last = c.Check(cctx, e)
		cancel()
		if last == nil {
			return ConditionResult{Name: c.Name, Passed: true, WaitS: time.Since(start).Seconds()}
		}
		if time.Since(start) > deadline || ctx.Err() != nil {
			return ConditionResult{Name: c.Name, Passed: false, Error: last.Error(), WaitS: time.Since(start).Seconds()}
		}
		select {
		case <-ctx.Done():
		case <-time.After(200 * time.Millisecond):
		}
	}
}
