package cluster

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/repo"
	"repro/internal/server"
)

// Rebalancer is the background process that makes membership changes
// converge: it walks the fleet's blob listings against the current
// ring, copies under-replicated blobs to their (possibly new) owners,
// trims misplaced surplus replicas — but only after every alive owner
// verifiably holds the blob — and spreads delete tombstones it runs
// into. A membership change mid-pass aborts the pass (the ring it was
// working against is history) and immediately starts a fresh one.
//
// Trimming is what empties a draining node: off the ring it owns
// nothing, so once the real owners hold its blobs every copy it still
// has is surplus.
type Rebalancer struct {
	g        *Gateway
	interval time.Duration

	kick   chan struct{}
	cancel context.CancelFunc

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
	done      chan struct{}

	mu         sync.Mutex
	running    bool
	lastPassMS int64
	lastErr    string

	passes   atomic.Uint64
	examined atomic.Uint64
	copies   atomic.Uint64
	trims    atomic.Uint64
	tombs    atomic.Uint64
	skipped  atomic.Uint64
	errs     atomic.Uint64
	aborted  atomic.Uint64
}

// RebalanceStats is the rebalancer's progress, the POST
// /cluster/rebalance reply.
type RebalanceStats struct {
	// State is "disabled", "idle", or "running".
	State string `json:"state"`
	// RingVersion is the ring the next/current pass works against.
	RingVersion string `json:"ring_version"`
	// Passes counts completed passes; Aborted counts passes cut short
	// by a membership change (each immediately rerun).
	Passes  uint64 `json:"passes"`
	Aborted uint64 `json:"aborted"`
	// BlobsExamined / Copies / Trims / TombstonesPropagated / Skipped /
	// Errors are cumulative work counters.
	BlobsExamined        uint64 `json:"blobs_examined"`
	Copies               uint64 `json:"copies"`
	Trims                uint64 `json:"trims"`
	TombstonesPropagated uint64 `json:"tombstones_propagated"`
	Skipped              uint64 `json:"skipped"`
	Errors               uint64 `json:"errors"`
	// LastPassMS is the duration of the last completed pass.
	LastPassMS int64  `json:"last_pass_ms"`
	LastError  string `json:"last_error,omitempty"`
}

// errPassStale aborts a pass whose ring snapshot a membership change
// has outdated.
var errPassStale = errors.New("cluster: membership changed mid-pass")

func newRebalancer(g *Gateway, interval time.Duration) *Rebalancer {
	return &Rebalancer{
		g:        g,
		interval: interval,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// Kick requests a pass as soon as possible (coalescing with one
// already requested). Safe before Start and on a disabled rebalancer
// — the request then just never fires.
func (rb *Rebalancer) Kick() {
	select {
	case rb.kick <- struct{}{}:
	default:
	}
}

// Start launches the pass loop (idempotent; no-op when disabled).
func (rb *Rebalancer) Start() {
	if rb.interval <= 0 {
		return
	}
	rb.startOnce.Do(func() {
		rb.started = true
		ctx, cancel := context.WithCancel(context.Background())
		rb.cancel = cancel
		go rb.loop(ctx)
	})
}

// Stop ends the loop and waits for an in-flight pass to exit. Safe
// without a prior Start and more than once.
func (rb *Rebalancer) Stop() {
	rb.stopOnce.Do(func() {
		if rb.cancel != nil {
			rb.cancel()
		}
	})
	if rb.started {
		<-rb.done
	}
}

// loop turns ticks and kicks into "rebalance" jobs on the gateway's
// job table — every pass is a first-class Job: visible in GET /jobs,
// abortable with DELETE /jobs/{id}, its progress counters scraped as
// metrics. An exclusive collision (a pass already running, however it
// was started) just coalesces with it.
func (rb *Rebalancer) loop(ctx context.Context) {
	defer close(rb.done)
	t := time.NewTicker(rb.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-rb.kick:
		case <-t.C:
		}
		j, err := rb.g.jobs.Start("rebalance", map[string]string{"trigger": "auto"})
		if err != nil {
			continue
		}
		select {
		case <-j.Done():
			// One terminal snapshot lands per tick; keep an hour of
			// history so GET /jobs stays bounded on a long-lived gateway.
			rb.g.jobs.Sweep(time.Hour)
		case <-ctx.Done():
			rb.g.jobs.Abort(j.ID())
			<-j.Done()
			return
		}
	}
}

// runRebalance is the "rebalance" job runner: one full pass, rerun
// immediately while membership changes keep outdating the ring it
// works against. The Rebalancer's counters are process-lifetime
// cumulative — a restarted job never resets them, so scraped rates
// stay meaningful — while the job's own progress counters cover just
// this run.
func (rb *Rebalancer) runRebalance(ctx context.Context, j *jobs.Job) error {
	for {
		err := rb.pass(ctx, j)
		if err == errPassStale {
			rb.aborted.Add(1)
			j.Add("stale_reruns", 1)
			continue
		}
		rb.mu.Lock()
		if err != nil && ctx.Err() == nil {
			rb.lastErr = err.Error()
		} else if err == nil {
			rb.lastErr = ""
		}
		rb.mu.Unlock()
		return err
	}
}

// Stats snapshots the rebalancer counters.
func (rb *Rebalancer) Stats() RebalanceStats {
	rb.mu.Lock()
	state := "idle"
	if rb.running {
		state = "running"
	}
	if rb.interval <= 0 {
		state = "disabled"
	}
	out := RebalanceStats{
		State:      state,
		LastPassMS: rb.lastPassMS,
		LastError:  rb.lastErr,
	}
	rb.mu.Unlock()
	out.RingVersion = ringVersionString(rb.g.Ring())
	out.Passes = rb.passes.Load()
	out.Aborted = rb.aborted.Load()
	out.BlobsExamined = rb.examined.Load()
	out.Copies = rb.copies.Load()
	out.Trims = rb.trims.Load()
	out.TombstonesPropagated = rb.tombs.Load()
	out.Skipped = rb.skipped.Load()
	out.Errors = rb.errs.Load()
	return out
}

// nodeInventory is one node's answer to the gather scatter.
type nodeInventory struct {
	blobs []server.VBSInfo
	tombs []server.TombstoneInfo
}

// pass runs one full rebalance sweep against the current ring,
// returning errPassStale when a membership change outdates it mid-way.
// Work is mirrored into j's progress counters as it happens.
func (rb *Rebalancer) pass(ctx context.Context, j *jobs.Job) error {
	g := rb.g
	startVer := g.MembershipVersion()
	ring := g.Ring()
	stale := func() bool { return g.MembershipVersion() != startVer }

	rb.mu.Lock()
	rb.running = true
	rb.mu.Unlock()
	t0 := time.Now()
	defer func() {
		rb.mu.Lock()
		rb.running = false
		rb.lastPassMS = time.Since(t0).Milliseconds()
		rb.mu.Unlock()
	}()
	rb.passes.Add(1)

	// Gather every reachable member's holdings and live tombstones —
	// draining members included: their blobs are exactly the ones that
	// must move.
	var alive []string
	for _, n := range g.reg.Names() {
		if g.reg.Alive(n) {
			alive = append(alive, n)
		}
	}
	if len(alive) == 0 {
		return errors.New("cluster: rebalance: no node reachable")
	}
	inv := scatter(ctx, g, alive, func(ctx context.Context, c *server.Client) (nodeInventory, error) {
		blobs, err := c.ListVBS(ctx)
		if err != nil {
			return nodeInventory{}, err
		}
		tombs, err := c.Tombstones(ctx)
		if err != nil {
			return nodeInventory{}, err
		}
		return nodeInventory{blobs: blobs, tombs: tombs}, nil
	})

	holders := map[string][]string{} // digest -> nodes holding it
	tombed := map[string]bool{}      // digest -> some live tombstone exists
	for _, nr := range inv {
		if nr.err != nil {
			// An unreachable member does not block rebalancing the
			// rest; its blobs are handled once it answers again.
			rb.errs.Add(1)
			j.Add("errors", 1)
			continue
		}
		for _, b := range nr.val.blobs {
			holders[b.Digest] = append(holders[b.Digest], nr.node)
		}
		for _, ts := range nr.val.tombs {
			tombed[ts.Digest] = true
		}
	}

	digests := make([]string, 0, len(holders))
	for d := range holders {
		digests = append(digests, d)
	}
	sort.Strings(digests)

	for _, hex := range digests {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if stale() {
			return errPassStale
		}
		d, err := repo.ParseDigest(hex)
		if err != nil {
			rb.errs.Add(1)
			j.Add("errors", 1)
			continue
		}
		rb.examined.Add(1)
		j.Add("examined", 1)

		if tombed[hex] {
			// Deleted somewhere: spread the tombstone to every holder
			// instead of re-balancing a dead blob.
			rb.propagate(ctx, d, holders[hex], j)
			continue
		}

		holding := map[string]bool{}
		for _, n := range holders[hex] {
			holding[n] = true
		}
		owners := ring.Lookup(d, g.replicas)
		ownerSet := map[string]bool{}
		for _, o := range owners {
			ownerSet[o] = true
		}

		// Copy to alive owners that miss the blob.
		complete := true // every alive owner verified holding
		goneMid := false
		for _, o := range owners {
			if !g.reg.Alive(o) {
				continue
			}
			if holding[o] {
				continue
			}
			if rb.copyTo(ctx, d, o, holders[hex], &goneMid, j) {
				holding[o] = true
			} else {
				complete = false
			}
			if goneMid {
				break
			}
		}
		if goneMid {
			rb.propagate(ctx, d, holders[hex], j)
			continue
		}

		// Trim surplus replicas — only once the owner set verifiably
		// holds the blob, so a trim can never drop the last copy.
		if !complete {
			continue
		}
		for _, h := range holders[hex] {
			if ownerSet[h] || !g.reg.Alive(h) {
				continue
			}
			c := g.reg.Client(h)
			if c == nil {
				continue
			}
			err := g.retryTransport(ctx, h, func(ctx context.Context) error {
				return c.TrimVBS(ctx, d.String())
			})
			switch {
			case err == nil || server.StatusCode(err) == http.StatusNotFound:
				rb.trims.Add(1)
				j.Add("trims", 1)
			case server.StatusCode(err) == http.StatusConflict:
				// A live task still references the copy: it stays until
				// the task unloads.
				rb.skipped.Add(1)
				j.Add("skipped", 1)
			default:
				rb.errs.Add(1)
				j.Add("errors", 1)
			}
		}
	}
	return nil
}

// copyTo replicates d onto owner `to` from one of the holders,
// preferring holders that are themselves owners (their copy is the
// authoritative one). Reports success; sets *gone when a tombstone
// surfaced (410) — the caller then propagates the delete instead.
func (rb *Rebalancer) copyTo(ctx context.Context, d repo.Digest, to string, holders []string, gone *bool, j *jobs.Job) bool {
	g := rb.g
	ring := g.Ring()
	srcs := make([]string, 0, len(holders))
	for _, h := range holders {
		if ring.Has(h) {
			srcs = append(srcs, h)
		}
	}
	for _, h := range holders {
		if !ring.Has(h) {
			srcs = append(srcs, h)
		}
	}
	for _, src := range srcs {
		if !g.reg.Alive(src) {
			continue
		}
		data, err := g.fetchVerified(ctx, src, d)
		if server.StatusCode(err) == http.StatusGone {
			*gone = true
			return false
		}
		if err != nil {
			continue
		}
		if g.reg.Client(to) == nil {
			return false
		}
		// Deliberately NOT force: a delete that lands mid-copy wins —
		// the 410 turns this copy into tombstone propagation. The copy
		// rides the destination's stream when live (HTTP otherwise).
		resp, err := g.putBlobNode(ctx, to, data, false)
		switch {
		case server.StatusCode(err) == http.StatusGone:
			*gone = true
			return false
		case err != nil:
			rb.errs.Add(1)
			j.Add("errors", 1)
			return false
		case resp.Digest != d.String():
			rb.errs.Add(1)
			j.Add("errors", 1)
			return false
		}
		rb.copies.Add(1)
		j.Add("copies", 1)
		return true
	}
	rb.skipped.Add(1) // no alive source: handled when one returns
	j.Add("skipped", 1)
	return false
}

// propagate spreads a delete tombstone to every holder of d.
func (rb *Rebalancer) propagate(ctx context.Context, d repo.Digest, holders []string, j *jobs.Job) {
	g := rb.g
	rb.tombs.Add(1)
	j.Add("tombstones", 1)
	for _, h := range holders {
		if !g.reg.Alive(h) {
			continue
		}
		c := g.reg.Client(h)
		if c == nil {
			continue
		}
		err := g.retryTransport(ctx, h, func(ctx context.Context) error {
			return c.DeleteVBS(ctx, d.String())
		})
		if err != nil && server.StatusCode(err) == http.StatusConflict {
			// A task re-referenced the digest: the delete loses there.
			rb.skipped.Add(1)
			j.Add("skipped", 1)
		}
	}
}
