package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

// defineJobs registers the gateway's background job kinds. Called once
// from New, before the metrics registry snapshots the kind list.
//
// "rebalance" runs on the gateway itself; the fleet kinds fan the
// same-named node job out to every alive node and scatter-gather their
// progress into the one gateway job.
func (g *Gateway) defineJobs() {
	g.jobs.Define(jobs.Spec{Kind: "rebalance", Exclusive: true, Run: g.reb.runRebalance})
	for _, kind := range []string{"scrub", "tombstone-sweep", "warm"} {
		g.jobs.Define(jobs.Spec{Kind: kind, Exclusive: true, Run: g.fleetRunner(kind)})
	}
}

// remoteJob tracks one node's half of a fleet job.
type remoteJob struct {
	node string
	id   int64
	last jobs.Snapshot
	done bool
	// fails counts consecutive failed polls; the node is given up on
	// after fleetPollGiveUp of them.
	fails int
}

const (
	fleetPollInterval = 50 * time.Millisecond
	fleetPollGiveUp   = 20
)

// fleetRunner returns the Runner for a fleet-wide kind.
func (g *Gateway) fleetRunner(kind string) jobs.Runner {
	return func(ctx context.Context, j *jobs.Job) error {
		return g.runFleet(ctx, j, kind)
	}
}

// runFleet starts the kind on every alive node, then polls each remote
// job and folds the per-node progress counters (summed) plus "nodes",
// "started" and "nodes_done" into the gateway job. Aborting the
// gateway job aborts every remote job still running.
func (g *Gateway) runFleet(ctx context.Context, j *jobs.Job, kind string) error {
	nodes := g.aliveNodes()
	if len(nodes) == 0 {
		return errors.New("cluster: no alive node to run " + kind)
	}
	j.Set("nodes", int64(len(nodes)))
	args := j.Snapshot().Args

	g.scatters.Add(1)
	res := scatter(ctx, g, nodes, func(ctx context.Context, c *server.Client) (server.JobInfo, error) {
		hctx, cancel := context.WithTimeout(ctx, g.hop)
		defer cancel()
		return c.StartJob(hctx, kind, args)
	})
	var remotes []*remoteJob
	var failures []string
	for _, nr := range res {
		if nr.err != nil {
			failures = append(failures, fmt.Sprintf("start %s: %v", nr.node, nr.err))
			continue
		}
		remotes = append(remotes, &remoteJob{node: nr.node, id: nr.val.ID, last: nr.val})
	}
	j.Set("started", int64(len(remotes)))
	if len(remotes) == 0 {
		return fmt.Errorf("cluster: %s started on no node: %s", kind, strings.Join(failures, "; "))
	}

	fold := func() {
		sums := map[string]int64{}
		ndone := 0
		for _, r := range remotes {
			for k, v := range r.last.Progress {
				sums[k] += v
			}
			if r.last.Status.Terminal() {
				ndone++
			}
		}
		for k, v := range sums {
			j.Set(k, v)
		}
		j.Set("nodes_done", int64(ndone))
	}

	// abortRemotes uses fresh hop-bounded contexts: the job ctx that
	// triggered the abort is already dead.
	abortRemotes := func() {
		for _, r := range remotes {
			if r.done {
				continue
			}
			if c := g.reg.Client(r.node); c != nil {
				hctx, cancel := context.WithTimeout(context.Background(), g.hop)
				_, _ = c.AbortJob(hctx, r.id)
				cancel()
			}
		}
	}

	tick := time.NewTicker(fleetPollInterval)
	defer tick.Stop()
	for {
		pending := 0
		for _, r := range remotes {
			if r.done {
				continue
			}
			c := g.reg.Client(r.node)
			if c == nil {
				r.done = true
				failures = append(failures, fmt.Sprintf("%s: left the cluster mid-job", r.node))
				continue
			}
			hctx, cancel := context.WithTimeout(ctx, g.hop)
			snap, err := c.Job(hctx, r.id)
			cancel()
			g.observe(r.node, err)
			if err != nil {
				if r.fails++; r.fails >= fleetPollGiveUp {
					r.done = true
					failures = append(failures, fmt.Sprintf("%s: lost job %d: %v", r.node, r.id, err))
				} else {
					pending++
				}
				continue
			}
			r.fails = 0
			r.last = snap
			if snap.Status.Terminal() {
				r.done = true
				if snap.Status == jobs.StatusFailed {
					failures = append(failures, fmt.Sprintf("%s: %s", r.node, snap.Error))
				}
			} else {
				pending++
			}
		}
		fold()
		if pending == 0 {
			break
		}
		select {
		case <-ctx.Done():
			abortRemotes()
			return ctx.Err()
		case <-tick.C:
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("cluster: %s: %s", kind, strings.Join(failures, "; "))
	}
	return nil
}

// ── HTTP surface ───────────────────────────────────────────────────

func (g *Gateway) handleStartJob(w http.ResponseWriter, r *http.Request) {
	var req server.StartJobRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	j, err := g.jobs.Start(req.Kind, req.Args)
	if err != nil {
		server.WriteJobStartError(w, err, g.jobs.Kinds())
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleListJobs merges the gateway's own jobs (Node="gateway") with
// every alive node's listing (Node=the node URL), so one GET shows the
// whole fleet's background activity.
func (g *Gateway) handleListJobs(w http.ResponseWriter, r *http.Request) {
	out := g.jobs.List()
	for i := range out {
		out[i].Node = "gateway"
	}
	g.scatters.Add(1)
	res := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) ([]server.JobInfo, error) {
		return c.Jobs(ctx)
	})
	for _, nr := range res {
		if nr.err != nil {
			continue
		}
		for _, s := range nr.val {
			s.Node = nr.node
			out = append(out, s)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// jobFromPath resolves {id} against the gateway's own table.
func (g *Gateway) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	j, ok := g.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %d not found", id)
		return nil, false
	}
	return j, true
}

func (g *Gateway) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := g.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleAbortJob signals the abort and returns the job's snapshot
// immediately — a fleet job's runner aborts its remote halves while
// winding down; poll GET /jobs/{id} for the terminal state.
func (g *Gateway) handleAbortJob(w http.ResponseWriter, r *http.Request) {
	j, ok := g.jobFromPath(w, r)
	if !ok {
		return
	}
	g.jobs.Abort(j.ID())
	writeJSON(w, http.StatusOK, j.Snapshot())
}
