package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/server"
	"repro/internal/transport"
)

// Options tunes a Gateway.
type Options struct {
	// Replicas is the number of nodes holding each blob (primary +
	// R-1 replicas); 0 selects 2. Values above the node count are
	// clamped per lookup.
	Replicas int
	// VNodes is the virtual-node count per physical node on the hash
	// ring; 0 selects DefaultVNodes.
	VNodes int
	// ProbeInterval / ProbeTimeout drive the registry health loop;
	// 0 selects 2s / 1s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// HopTimeout bounds every proxied call to a node; 0 selects 15s.
	// Loads pay a decode on the node, so this is deliberately looser
	// than the probe timeout.
	HopTimeout time.Duration
	// RetryAttempts is the total tries per idempotent hop (GET, HEAD,
	// probe, replication copy) before the caller fails over; 0 selects
	// 3, 1 disables retries. Non-idempotent ops (loads) never retry a
	// hop — failover across owners is their retry.
	RetryAttempts int
	// RetryBackoff is the first retry delay (doubled per attempt,
	// capped, jittered); 0 selects 25ms.
	RetryBackoff time.Duration
	// RebalanceInterval is the background rebalancer's pass interval;
	// 0 selects 60s, negative disables the rebalancer (membership
	// changes still kick a pass when enabled).
	RebalanceInterval time.Duration
}

// Gateway fronts a fleet of vbsd nodes with the single-daemon
// HTTP/JSON API: blob operations route by content address over the
// consistent-hash ring with write-through replication and read
// failover; fleet-wide endpoints scatter-gather and merge. Task and
// fabric ids route by the node boot instance in their high bits, so
// the gateway stores no task state and any gateway names them alike.
type Gateway struct {
	// ring is swapped copy-on-write on membership changes: requests
	// load the pointer once and route on an immutable snapshot.
	ring      atomic.Pointer[Ring]
	reg       *Registry
	reb       *Rebalancer
	jobs      *jobs.Table
	metrics   *metrics.Registry
	opLat     *metrics.HistogramVec
	streams   *streamPool
	transport *transport.Metrics
	replicas  int
	hop       time.Duration
	start     time.Time

	retryAttempts int
	retryBase     time.Duration

	// mshipMu serializes membership changes (ring swaps stay atomic for
	// readers either way); mshipVer counts them — the rebalancer aborts
	// a pass when it moves. draining marks members kept in the registry
	// but taken off the ring while the rebalancer empties them.
	mshipMu  sync.Mutex
	mshipVer atomic.Uint64
	draining map[string]bool

	// repairs tracks in-flight asynchronous read-repairs so Stop can
	// drain them (and tests can observe completion); repairing dedups
	// concurrent owner-verification sweeps per digest.
	repairs   sync.WaitGroup
	repairing sync.Map

	proxied          atomic.Uint64
	replicated       atomic.Uint64
	replicationFails atomic.Uint64
	failovers        atomic.Uint64
	readRepairs      atomic.Uint64
	repairChecks     atomic.Uint64
	scatterFallbacks atomic.Uint64
	scatters         atomic.Uint64
	retries          atomic.Uint64
	tombstoneSweeps  atomic.Uint64
}

// New builds a gateway over the given node base URLs. At least one
// node is required. Call Start to launch health probing and Stop on
// shutdown.
func New(nodes []string, opts Options) (*Gateway, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node set")
	}
	if opts.Replicas == 0 {
		opts.Replicas = 2
	}
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replicas must be >= 1")
	}
	if opts.HopTimeout <= 0 {
		opts.HopTimeout = 15 * time.Second
	}
	if opts.RetryAttempts == 0 {
		opts.RetryAttempts = defaultRetryAttempts
	}
	if opts.RetryAttempts < 1 {
		opts.RetryAttempts = 1
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBase
	}
	if opts.RebalanceInterval == 0 {
		opts.RebalanceInterval = time.Minute
	}
	g := &Gateway{
		reg:           NewRegistry(nodes, opts.ProbeInterval, opts.ProbeTimeout),
		replicas:      opts.Replicas,
		hop:           opts.HopTimeout,
		start:         time.Now(),
		retryAttempts: opts.RetryAttempts,
		retryBase:     opts.RetryBackoff,
		draining:      make(map[string]bool),
	}
	g.ring.Store(NewRing(nodes, opts.VNodes))
	g.reg.SetRetry(opts.RetryAttempts, opts.RetryBackoff)
	g.reb = newRebalancer(g, opts.RebalanceInterval)
	g.jobs = jobs.NewTable()
	g.defineJobs()
	g.metrics = newGatewayMetrics(g)
	g.streams = newStreamPool(g.transport)
	return g, nil
}

// Ring loads the current routing ring — an immutable snapshot; a
// membership change mid-request cannot tear a lookup.
func (g *Gateway) Ring() *Ring { return g.ring.Load() }

// Rebalancer exposes the background rebalancer.
func (g *Gateway) Rebalancer() *Rebalancer { return g.reb }

// Start probes every node once (so the first request sees real
// states) and launches the background probe and rebalance loops.
func (g *Gateway) Start(ctx context.Context) {
	g.reg.ProbeAll(ctx)
	g.reg.Start()
	g.reb.Start()
}

// Stop terminates the rebalance and probe loops, aborts running jobs,
// and drains in-flight read-repairs (each bounded by the hop timeout).
func (g *Gateway) Stop() {
	g.reb.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = g.jobs.Shutdown(ctx)
	cancel()
	g.reg.Stop()
	g.repairs.Wait()
	g.streams.closeAll()
}

// Handler returns the gateway's HTTP routes — the same surface as a
// single vbsd daemon.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tasks", g.handleLoad)
	mux.HandleFunc("POST /tasks:batch", g.handleBatch)
	mux.HandleFunc("GET /tasks", g.handleListTasks)
	mux.HandleFunc("DELETE /tasks/{id}", g.handleUnload)
	mux.HandleFunc("POST /tasks/{id}/relocate", g.handleRelocate)
	mux.HandleFunc("POST /fabrics/{i}/compact", g.handleCompact)
	mux.HandleFunc("GET /fabrics", g.handleFabrics)
	mux.HandleFunc("POST /vbs", g.handlePutVBS)
	mux.HandleFunc("GET /vbs", g.handleListVBS)
	mux.HandleFunc("GET /vbs/{digest}", g.handleGetVBS)
	mux.HandleFunc("DELETE /vbs/{digest}", g.handleDeleteVBS)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("POST /jobs", g.handleStartJob)
	mux.HandleFunc("GET /jobs", g.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", g.handleGetJob)
	mux.HandleFunc("DELETE /jobs/{id}", g.handleAbortJob)
	mux.Handle("GET /metrics", g.metrics)
	// Cluster admin: runtime membership and rebalance control. {name}
	// is a path-escaped node base URL (Go's ServeMux matches wildcards
	// against the escaped path, so the embedded "//" survives).
	mux.HandleFunc("GET /cluster/nodes", g.handleMembers)
	mux.HandleFunc("POST /cluster/nodes", g.handleAddNode)
	mux.HandleFunc("DELETE /cluster/nodes/{name}", g.handleRemoveNode)
	mux.HandleFunc("POST /cluster/nodes/{name}/drain", g.handleDrainNode)
	mux.HandleFunc("POST /cluster/rebalance", g.handleRebalance)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeUpstream maps a node-call error onto the gateway reply: server
// replies keep their status and message, transport failures become
// 502.
func writeUpstream(w http.ResponseWriter, err error) {
	if code := server.StatusCode(err); code != 0 {
		writeError(w, code, "%s", server.ErrorMessage(err))
		return
	}
	writeError(w, http.StatusBadGateway, "cluster: %v", err)
}

func (g *Gateway) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return server.DecodeJSONBody(w, r, server.DefaultMaxBodyBytes, v)
}

func (g *Gateway) hopCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), g.hop)
}

// owners returns the digest's replica set reordered by health: alive
// nodes first, then suspect, then down — all in ring order within a
// class, so two gateways still agree whenever their health views do.
func (g *Gateway) owners(d repo.Digest) []string {
	own := g.Ring().Lookup(d, g.replicas)
	out := make([]string, 0, len(own))
	for _, class := range []State{Alive, Suspect, Down} {
		for _, n := range own {
			if g.reg.State(n) == class {
				out = append(out, n)
			}
		}
	}
	return out
}

// othersByHealth returns every non-down node not in the given set, in
// registry order — the scatter-fallback read path for blobs imported
// out-of-band on a non-owner node.
func (g *Gateway) othersByHealth(except []string) []string {
	var out []string
	for _, n := range g.aliveNodes() {
		if !slices.Contains(except, n) {
			out = append(out, n)
		}
	}
	return out
}

// nodeResult is one node's answer in a scatter.
type nodeResult[T any] struct {
	node string
	val  T
	err  error
}

// errNotMember marks a call against a node that left the registry
// between name capture and client lookup.
var errNotMember = errors.New("cluster: node no longer in registry")

// scatter fans f out to the given nodes concurrently and collects
// every answer in node order. Transport failures are retried per the
// gateway retry policy (every scatter use is idempotent) and demote
// the node in the registry.
func scatter[T any](ctx context.Context, g *Gateway, nodes []string,
	f func(ctx context.Context, c *server.Client) (T, error)) []nodeResult[T] {
	out := make([]nodeResult[T], len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			c := g.reg.Client(n)
			if c == nil {
				out[i] = nodeResult[T]{node: n, err: errNotMember}
				return
			}
			var val T
			err := g.retryTransport(ctx, n, func(ctx context.Context) error {
				var ferr error
				val, ferr = f(ctx, c)
				return ferr
			})
			out[i] = nodeResult[T]{node: n, val: val, err: err}
		}(i, n)
	}
	wg.Wait()
	return out
}

// observeOp records one gateway operation's end-to-end latency into
// the op histogram.
func (g *Gateway) observeOp(op string, begin time.Time) {
	g.opLat.With(op).Observe(time.Since(begin).Seconds())
}

// observe feeds a node-call outcome into the registry: any HTTP reply
// (even 4xx) proves liveness, a transport failure demotes.
func (g *Gateway) observe(node string, err error) {
	switch {
	case err == nil, server.StatusCode(err) != 0:
		g.reg.ReportSuccess(node)
	case errors.Is(err, context.Canceled):
		// The caller went away; says nothing about the node.
	default:
		g.reg.ReportFailure(node, err)
	}
}

// aliveNodes returns the non-down nodes in registry order.
func (g *Gateway) aliveNodes() []string {
	var out []string
	for _, n := range g.reg.Names() {
		if g.reg.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// fabricID names a node-local fabric fleet-wide: the node's boot
// instance in the high bits, the local index in the low ones.
func fabricID(inst int64, local int) int {
	return int(inst<<server.InstanceShift) | local
}

// fabricOf resolves a fleet fabric id to its member, that member's
// client and the local fabric index.
func (g *Gateway) fabricOf(id int) (string, *server.Client, int, bool) {
	node, c, ok := g.reg.ByInstance(server.InstanceOf(int64(id)))
	return node, c, id & (1<<server.InstanceShift - 1), ok && id >= 0
}

// ── blob + task routing ────────────────────────────────────────────

// replicate copies a container to every owner except the one that
// already holds it. With streams up the copies are *pipelined*: each
// target's blob is enqueued on its persistent stream and the caller
// returns without waiting — the receiver's ack fires the counters,
// and a reconnect retransmits anything unacked, so the copy converges
// even across a node crash. Targets without a live stream fall back
// to the old write-through HTTP scatter. Failures are counted, not
// fatal: a missed replica is healed by read-repair later.
//
// Force: replication carries the same user intent as the write it
// fans out — it must land even on a node still holding a tombstone
// from an earlier delete of the same bytes.
func (g *Gateway) replicate(ctx context.Context, digest repo.Digest, data []byte, owners []string, holder string) {
	var httpTargets []string
	var msg []byte
	for _, n := range owners {
		if n == holder || !g.reg.Alive(n) {
			continue
		}
		st := g.streams.ready(n)
		if st == nil {
			httpTargets = append(httpTargets, n)
			continue
		}
		if msg == nil {
			msg = transport.EncodeObjPut(digest, true, data)
		}
		err := st.Send(ctx, msg, true, func(err error) {
			if err != nil {
				g.replicationFails.Add(1)
			} else {
				g.replicated.Add(1)
			}
		})
		if err != nil {
			httpTargets = append(httpTargets, n)
		}
	}
	if len(httpTargets) == 0 {
		return
	}
	res := scatter(ctx, g, httpTargets, func(ctx context.Context, c *server.Client) (server.PutVBSResponse, error) {
		return c.PutVBS(ctx, data, true)
	})
	for _, r := range res {
		if r.err != nil {
			g.replicationFails.Add(1)
		} else {
			g.replicated.Add(1)
		}
	}
}

func (g *Gateway) handleLoad(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("load", time.Now())
	var req server.LoadRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.VBS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vbs base64: %v", err)
		return
	}
	digest := repo.DigestOf(data)
	owners := g.Ring().Lookup(digest, g.replicas)

	// The load request targets the digest's owners in health order —
	// unless the caller pinned a fleet fabric id, which names its node
	// outright.
	targets := g.owners(digest)
	if req.Fabric != nil {
		node, _, local, ok := g.fabricOf(*req.Fabric)
		if !ok {
			writeError(w, http.StatusBadRequest, "fabric %d not in the fleet", *req.Fabric)
			return
		}
		req.Fabric = &local
		targets = []string{node}
	}

	var placed server.LoadResponse
	var onNode string
	var lastErr error
	for i, n := range targets {
		c := g.reg.Client(n)
		if c == nil {
			lastErr = errNotMember
			continue
		}
		ctx, cancel := g.hopCtx(r)
		resp, err := c.Load(ctx, data, req)
		cancel()
		g.observe(n, err)
		g.proxied.Add(1)
		if err == nil {
			placed, onNode = resp, n
			if i > 0 {
				g.failovers.Add(1)
			}
			break
		}
		lastErr = err
		switch code := server.StatusCode(err); {
		case code == http.StatusConflict, code >= 500:
			// Capacity or internal failure on this node: another
			// owner may still admit the task.
			continue
		case code != 0:
			// A deliberate 4xx (bad body, bad policy, pinned slot
			// conflict) would repeat identically everywhere. Node-side
			// disk failures arrive as 5xx (store.ErrDisk) and fail
			// over above.
			writeUpstream(w, err)
			return
		default:
			// Transport failure: fail over. A *timeout* here is
			// ambiguous — the node may still complete the load after
			// we give up. Such an orphan is still named by its node's
			// id: GET /tasks lists it and DELETE /tasks/{id} frees it.
			continue
		}
	}
	if onNode == "" {
		if lastErr == nil {
			writeError(w, http.StatusServiceUnavailable, "cluster: no node reachable for load")
			return
		}
		// Transport-only failures mean every candidate node is down:
		// 503 (retryable outage), not a generic 502.
		if server.StatusCode(lastErr) == 0 {
			writeError(w, http.StatusServiceUnavailable,
				"cluster: no node reachable for load: %v", lastErr)
			return
		}
		writeUpstream(w, lastErr)
		return
	}

	// Write-through replication: the blob must survive the loss of
	// any replicas-1 nodes before the client hears "created".
	g.replicate(r.Context(), digest, data, owners, onNode)

	inst := server.InstanceOf(placed.ID)
	g.reg.Learn(onNode, inst)
	placed.Fabric = fabricID(inst, placed.Fabric)
	writeJSON(w, http.StatusCreated, placed)
}

// taskFromPath resolves {id} to the member whose boot minted it, or
// replies 400/404.
func (g *Gateway) taskFromPath(w http.ResponseWriter, r *http.Request) (int64, string, *server.Client, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad task id %q", r.PathValue("id"))
		return 0, "", nil, false
	}
	node, c, ok := g.reg.ByInstance(server.InstanceOf(id))
	if !ok {
		writeError(w, http.StatusNotFound, "task %d not loaded", id)
	}
	return id, node, c, ok
}

func (g *Gateway) handleUnload(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("unload", time.Now())
	id, node, c, ok := g.taskFromPath(w, r)
	if !ok {
		return
	}
	ctx, cancel := g.hopCtx(r)
	defer cancel()
	err := c.Unload(ctx, id)
	g.observe(node, err)
	g.proxied.Add(1)
	if err != nil {
		writeUpstream(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handleRelocate(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("relocate", time.Now())
	id, node, c, ok := g.taskFromPath(w, r)
	if !ok {
		return
	}
	var req server.RelocateRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	if req.X == nil || req.Y == nil {
		writeError(w, http.StatusBadRequest, "x and y are required")
		return
	}
	ctx, cancel := g.hopCtx(r)
	defer cancel()
	info, err := c.Relocate(ctx, id, *req.X, *req.Y)
	g.observe(node, err)
	g.proxied.Add(1)
	if err != nil {
		writeUpstream(w, err)
		return
	}
	info.Node = node
	info.Fabric = fabricID(server.InstanceOf(id), info.Fabric)
	writeJSON(w, http.StatusOK, info)
}

// handleListTasks scatters GET /tasks over every member that answers,
// draining ones included: ids pass through unchanged (tasks loaded out
// of band included), fabric indices become fleet fabric ids.
func (g *Gateway) handleListTasks(w http.ResponseWriter, r *http.Request) {
	g.scatters.Add(1)
	res := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) ([]server.TaskInfo, error) {
		return c.Tasks(ctx)
	})
	out := make([]server.TaskInfo, 0)
	for _, nr := range res {
		if nr.err != nil {
			continue
		}
		for _, ti := range nr.val {
			ti.Node = nr.node
			ti.Fabric = fabricID(server.InstanceOf(ti.ID), ti.Fabric)
			out = append(out, ti)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleCompact(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	node, c, local, ok := g.fabricOf(i)
	if err != nil || !ok {
		writeError(w, http.StatusNotFound, "fabric %q not in pool", r.PathValue("i"))
		return
	}
	ctx, cancel := g.hopCtx(r)
	defer cancel()
	res, err := c.Compact(ctx, local)
	g.observe(node, err)
	g.proxied.Add(1)
	if err != nil {
		writeUpstream(w, err)
		return
	}
	res.Fabric = i
	writeJSON(w, http.StatusOK, res)
}

// handleFabrics scatters GET /fabrics over every member that answers,
// naming each fabric by its fleet fabric id; a member not yet probed
// has no known boot instance and is left out until it is.
func (g *Gateway) handleFabrics(w http.ResponseWriter, r *http.Request) {
	g.scatters.Add(1)
	res := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) ([]server.FabricInfo, error) {
		return c.Fabrics(ctx)
	})
	out := make([]server.FabricInfo, 0)
	for _, nr := range res {
		inst := g.reg.Instance(nr.node)
		if nr.err != nil || inst == 0 {
			continue
		}
		for _, fi := range nr.val {
			fi.Index = fabricID(inst, fi.Index)
			fi.Node = nr.node
			out = append(out, fi)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePutVBS admits a blob through the gateway: it is written to
// every owner of its digest, so a subsequent load finds it already
// replicated.
func (g *Gateway) handlePutVBS(w http.ResponseWriter, r *http.Request) {
	var req server.PutVBSRequest
	if !g.decodeBody(w, r, &req) {
		return
	}
	data, err := base64.StdEncoding.DecodeString(req.VBS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad vbs base64: %v", err)
		return
	}
	owners := g.owners(repo.DigestOf(data))
	g.proxied.Add(1)
	// Force: an explicit client write overrides any delete tombstone,
	// exactly like the single-daemon PUT-after-force semantics.
	res := scatter(r.Context(), g, owners, func(ctx context.Context, c *server.Client) (server.PutVBSResponse, error) {
		return c.PutVBS(ctx, data, true)
	})
	var firstOK *server.PutVBSResponse
	var lastErr error
	for i := range res {
		if res[i].err != nil {
			lastErr = res[i].err
			continue
		}
		if firstOK == nil {
			firstOK = &res[i].val
		}
	}
	if firstOK == nil {
		writeUpstream(w, lastErr)
		return
	}
	writeJSON(w, http.StatusCreated, *firstOK)
}

// handleListVBS merges every node's blob listing: one row per digest,
// task references summed, Replicas counting the nodes holding it.
func (g *Gateway) handleListVBS(w http.ResponseWriter, r *http.Request) {
	g.scatters.Add(1)
	res := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) ([]server.VBSInfo, error) {
		return c.ListVBS(ctx)
	})
	merged := map[string]*server.VBSInfo{}
	for _, nr := range res {
		if nr.err != nil {
			continue
		}
		for _, b := range nr.val {
			m, ok := merged[b.Digest]
			if !ok {
				info := b
				info.Replicas = 1
				merged[b.Digest] = &info
				continue
			}
			m.Tasks += b.Tasks
			m.RAM = m.RAM || b.RAM
			m.Disk = m.Disk || b.Disk
			m.Replicas++
		}
	}
	out := make([]server.VBSInfo, 0, len(merged))
	for _, b := range merged {
		out = append(out, *b)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Digest < out[b].Digest })
	writeJSON(w, http.StatusOK, out)
}

// fetchVerified downloads a blob from one node (with transport
// retries) and re-checks its content address — a gateway must never
// relay bytes that do not hash to the digest it serves them under.
func (g *Gateway) fetchVerified(ctx context.Context, node string, d repo.Digest) ([]byte, error) {
	c := g.reg.Client(node)
	if c == nil {
		return nil, errNotMember
	}
	var data []byte
	err := g.retryTransport(ctx, node, func(ctx context.Context) error {
		var ferr error
		data, ferr = c.GetVBS(ctx, d.String())
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if repo.DigestOf(data) != d {
		return nil, fmt.Errorf("cluster: node %s served corrupt bytes for %s", node, d.Short())
	}
	return data, nil
}

func (g *Gateway) handleGetVBS(w http.ResponseWriter, r *http.Request) {
	defer g.observeOp("vbs_get", time.Now())
	d, err := repo.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	owners := g.owners(d)
	primary := g.Ring().Owner(d)
	g.proxied.Add(1)

	serve := func(data []byte, from string) {
		// Read-repair: every successful read schedules an asynchronous
		// owner-verification sweep off the reply path — a degraded read
		// must not pay a HEAD fan-out or full-blob replication in
		// latency. Verifying all owners (not just "served from
		// non-primary") is what heals a *secondary* replica loss: the
		// primary keeps answering, so only an explicit check notices
		// the set is degraded.
		g.scheduleRepair(d, data, from)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	}

	var lastErr, goneErr error
	for i, n := range owners {
		data, err := g.fetchVerified(r.Context(), n, d)
		if err == nil {
			if i > 0 || n != primary {
				g.failovers.Add(1)
			}
			serve(data, n)
			return
		}
		switch server.StatusCode(err) {
		case http.StatusNotFound:
		case http.StatusGone:
			goneErr = err
		default:
			lastErr = err
		}
	}
	if goneErr != nil {
		// An owner answered 410: the blob was deleted and its tombstone
		// still lives. Do NOT fall back to a scatter — serving a
		// straggler replica would resurrect a deleted blob.
		writeUpstream(w, goneErr)
		return
	}
	// Every owner missed: the blob may live on a non-owner (imported
	// directly into a node's repository). Scatter before giving up.
	others := g.othersByHealth(owners)
	if len(others) > 0 {
		g.scatterFallbacks.Add(1)
		res := scatter(r.Context(), g, others, func(ctx context.Context, c *server.Client) ([]byte, error) {
			data, err := c.GetVBS(ctx, d.String())
			if err == nil && repo.DigestOf(data) != d {
				return nil, fmt.Errorf("cluster: corrupt bytes for %s", d.Short())
			}
			return data, err
		})
		for _, nr := range res {
			if nr.err == nil {
				serve(nr.val, nr.node)
				return
			}
		}
	}
	if lastErr != nil {
		// A transport-only failure tail means every replica is down:
		// say so with 503 (retryable outage), not a generic 502.
		if server.StatusCode(lastErr) == 0 {
			writeError(w, http.StatusServiceUnavailable,
				"cluster: no replica of %s reachable: %v", d.Short(), lastErr)
			return
		}
		writeUpstream(w, lastErr)
		return
	}
	writeError(w, http.StatusNotFound, "vbs %s not stored", d.Short())
}

// scheduleRepair launches one asynchronous owner-verification sweep
// for a digest just served from `from`, deduplicating concurrent
// sweeps per digest.
func (g *Gateway) scheduleRepair(d repo.Digest, data []byte, from string) {
	key := d.String()
	if _, busy := g.repairing.LoadOrStore(key, struct{}{}); busy {
		return
	}
	g.repairs.Add(1)
	go func() {
		defer g.repairs.Done()
		defer g.repairing.Delete(key)
		g.repairOwners(d, data, from)
	}()
}

// headVBS HEADs one node for a digest with transport retries.
func (g *Gateway) headVBS(ctx context.Context, node string, d repo.Digest) (bool, error) {
	c := g.reg.Client(node)
	if c == nil {
		return false, errNotMember
	}
	var ok bool
	err := g.retryTransport(ctx, node, func(ctx context.Context) error {
		var herr error
		ok, herr = c.HasVBS(ctx, d.String())
		return herr
	})
	return ok, err
}

// propagateDelete spreads a delete observed on one node across the
// fleet so every holder records a tombstone — a blob deleted mid-
// repair or mid-rebalance must not resurface from a straggler
// replica. 404s are fine (the delete still tombstones); 409 means a
// task re-referenced the digest and the delete loses.
func (g *Gateway) propagateDelete(ctx context.Context, d repo.Digest) {
	g.tombstoneSweeps.Add(1)
	scatter(ctx, g, g.aliveNodes(), func(ctx context.Context, c *server.Client) (struct{}, error) {
		return struct{}{}, c.DeleteVBS(ctx, d.String())
	})
}

// repairOwners checks every alive owner of d holds a copy (a HEAD per
// owner) and re-replicates to the ones that do not. Before healing it
// anchor-checks that the node the blob was just served from still
// holds it: if a concurrent DELETE raced the sweep, re-putting would
// resurrect a deleted blob. A 410 anywhere flips the sweep's job from
// healing to spreading the delete. Runs off the request path with its
// own hop-bounded contexts.
func (g *Gateway) repairOwners(d repo.Digest, data []byte, from string) {
	g.repairChecks.Add(1)
	var missing []string
	gone := false
	for _, n := range g.Ring().Lookup(d, g.replicas) {
		if n == from || !g.reg.Alive(n) {
			continue
		}
		ok, err := g.headVBS(context.Background(), n, d)
		switch {
		case server.StatusCode(err) == http.StatusGone:
			gone = true
		case err == nil && !ok:
			missing = append(missing, n)
		}
	}
	if gone {
		g.propagateDelete(context.Background(), d)
		return
	}
	if len(missing) == 0 {
		return
	}
	ok, err := g.headVBS(context.Background(), from, d)
	if server.StatusCode(err) == http.StatusGone {
		g.propagateDelete(context.Background(), d)
		return
	}
	if err != nil || !ok {
		return
	}
	// Deliberately NOT force: a tombstone written between the HEADs and
	// this put must win (the 410 reply then finishes the delete's
	// propagation instead). Copies ride the stream when live — one
	// synchronous RPC per node so the 410 is still observable.
	var healed, goneOnPut bool
	var wg sync.WaitGroup
	var resMu sync.Mutex
	for _, n := range missing {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			_, err := g.putBlobNode(context.Background(), n, data, false)
			resMu.Lock()
			defer resMu.Unlock()
			switch {
			case err == nil:
				g.replicated.Add(1)
				healed = true
			case server.StatusCode(err) == http.StatusGone:
				goneOnPut = true
			default:
				g.replicationFails.Add(1)
			}
		}(n)
	}
	wg.Wait()
	if goneOnPut {
		g.propagateDelete(context.Background(), d)
	}
	if healed {
		g.readRepairs.Add(1)
	}
}

// handleDeleteVBS drops a blob from every reachable node. The
// destructive fan-out is guarded by a fleet-wide reference check
// first: a parallel delete must not strip unreferenced replicas off
// nodes while the owner is about to veto with 409, or a "failed"
// delete would silently lower the blob's replication factor. The
// check-then-delete window is racy across nodes (unlike the
// single-daemon delete, which holds one lock); each node still
// re-checks its own references under its lock, so the race only
// re-opens the partial-delete case, never an unsafe one.
func (g *Gateway) handleDeleteVBS(w http.ResponseWriter, r *http.Request) {
	d, err := repo.ParseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	g.proxied.Add(1)
	digest := d.String()
	refs := 0
	listed := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) ([]server.VBSInfo, error) {
		return c.ListVBS(ctx)
	})
	for _, nr := range listed {
		if nr.err != nil {
			continue
		}
		for _, b := range nr.val {
			if b.Digest == digest {
				refs += b.Tasks
			}
		}
	}
	if refs > 0 {
		writeError(w, http.StatusConflict, "vbs %s referenced by %d live task(s)", d.Short(), refs)
		return
	}
	res := scatter(r.Context(), g, g.aliveNodes(), func(ctx context.Context, c *server.Client) (struct{}, error) {
		return struct{}{}, c.DeleteVBS(ctx, d.String())
	})
	deleted := 0
	var lastErr error
	for _, nr := range res {
		switch code := server.StatusCode(nr.err); {
		case nr.err == nil:
			deleted++
		case code == http.StatusConflict:
			writeUpstream(w, nr.err)
			return
		case code == http.StatusNotFound:
			// Nothing to delete on this node.
		default:
			lastErr = nr.err
		}
	}
	switch {
	case deleted > 0:
		w.WriteHeader(http.StatusNoContent)
	case lastErr != nil:
		writeUpstream(w, lastErr)
	default:
		writeError(w, http.StatusNotFound, "vbs %s not stored", d.Short())
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"nodes":  g.Ring().Len(),
		"alive":  len(g.aliveNodes()),
	})
}

// ringVersionString renders the ring version as fixed-width hex.
func ringVersionString(r *Ring) string {
	return fmt.Sprintf("%016x", r.Version())
}
