package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// State is a node's health as seen by the registry probe loop.
type State int

const (
	// Alive: the last probe (or request) succeeded.
	Alive State = iota
	// Suspect: one probe failed; the node still receives traffic last
	// (reads prefer alive replicas) but is not yet written off.
	Suspect
	// Down: probeDownAfter consecutive probes failed; the node is
	// skipped until a probe succeeds again.
	Down
)

// String returns the lowercase state name served in GET /cluster/nodes.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// probeDownAfter is the consecutive-failure count that demotes a node
// to Down (the first failure makes it Suspect).
const probeDownAfter = 2

// node is one registry entry.
type node struct {
	name   string
	client *server.Client
	inst   int64 // last-reported boot instance; guarded by Registry.mu

	mu        sync.Mutex
	state     State
	fails     int
	lastProbe time.Time
	lastErr   string
}

// NodeInfo is a point-in-time snapshot of one node's probe health,
// served per member in GET /cluster/nodes.
type NodeInfo struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// LastProbeMS is milliseconds since the node was last probed
	// (-1 before the first probe).
	LastProbeMS int64 `json:"last_probe_ms"`
	// LastError is the most recent probe/request failure ("" when the
	// node has never failed or has recovered).
	LastError string `json:"last_error,omitempty"`
	// Instance is the node's boot instance; a change means a restart.
	Instance int64 `json:"instance,omitempty"`
}

// Registry tracks the health of a runtime-mutable node set by probing
// /healthz and by demotions reported from the request path
// (ReportFailure). It owns one server.Client per node; the gateway
// routes through those, and routes task and fabric ids by the boot
// instance each node reports. Add and Remove mutate the set under the
// registry lock; the probe loop works off a snapshot, so a membership
// change mid-round cannot race the node map.
type Registry struct {
	mu     sync.RWMutex
	nodes  []*node          // in configured order
	byName map[string]*node // name -> entry
	byInst map[int64]*node  // boot instance -> entry

	probe time.Duration // probe interval
	tmo   time.Duration // per-probe timeout

	// retryAttempts/retryBase configure per-probe transport retries
	// (capped exponential backoff + jitter); retries counts the extra
	// attempts for vbs_gateway_retries_total.
	retryAttempts int
	retryBase     time.Duration
	retries       atomic.Uint64

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
	started   bool // set under startOnce, read by Stop after stopOnce
}

// NewRegistry builds a registry over node base URLs in the given
// order. interval/timeout <= 0 select 2s/1s.
func NewRegistry(names []string, interval, timeout time.Duration) *Registry {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	r := &Registry{
		byName:        make(map[string]*node, len(names)),
		byInst:        make(map[int64]*node, len(names)),
		probe:         interval,
		tmo:           timeout,
		retryAttempts: 1,
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	for _, n := range names {
		if _, dup := r.byName[n]; dup {
			continue
		}
		e := &node{name: n, client: server.NewClient(n, nil)}
		r.nodes = append(r.nodes, e)
		r.byName[n] = e
	}
	return r
}

// SetRetry configures per-probe transport retries: up to attempts
// tries with capped exponential backoff starting at base. attempts
// <= 1 means single-shot (the default).
func (r *Registry) SetRetry(attempts int, base time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = defaultRetryBase
	}
	r.retryAttempts = attempts
	r.retryBase = base
}

// Retries returns how many extra probe attempts retries have used.
func (r *Registry) Retries() uint64 { return r.retries.Load() }

// Add registers a new node, reporting whether the set grew. The node
// starts Alive (optimistically: the next probe round corrects it
// within one interval, and a gateway probes new members immediately).
func (r *Registry) Add(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return false
	}
	e := &node{name: name, client: server.NewClient(name, nil)}
	r.nodes = append(r.nodes, e)
	r.byName[name] = e
	return true
}

// Remove drops a node from the set, reporting whether it was present.
// An in-flight probe round may still touch the removed entry (it works
// off a snapshot); that is harmless — the entry is unreachable from
// the map afterwards.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byInst, r.byName[name].inst)
	delete(r.byName, name)
	for i, n := range r.nodes {
		if n.name == name {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			break
		}
	}
	return true
}

// lookup resolves a name under the read lock.
func (r *Registry) lookup(name string) (*node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.byName[name]
	return n, ok
}

// snapshot returns the current node entries — the probe loop and every
// iteration work off this copy so concurrent Add/Remove cannot race.
func (r *Registry) snapshot() []*node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Names returns the node names in configured order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.name
	}
	return out
}

// Client returns the client for a node (nil for unknown names — a
// caller holding a name across a Remove must tolerate that).
func (r *Registry) Client(name string) *server.Client {
	if n, ok := r.lookup(name); ok {
		return n.client
	}
	return nil
}

// ByInstance resolves a boot instance to the member that reported it
// and its client; ok is false when no member holds the instance.
func (r *Registry) ByInstance(inst int64) (string, *server.Client, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n, ok := r.byInst[inst]; ok {
		return n.name, n.client, true
	}
	return "", nil, false
}

// Instance returns a member's last-reported boot instance (0 when
// unknown).
func (r *Registry) Instance(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n, ok := r.byName[name]; ok {
		return n.inst
	}
	return 0
}

// Learn records the boot instance a member's load reply carried, so a
// node that restarted between probes is routable at once. A refused
// claim is left for the next probe to report.
func (r *Registry) Learn(name string, inst int64) {
	r.mu.RLock()
	n := r.byName[name]
	known := n == nil || n.inst == inst
	r.mu.RUnlock()
	if !known {
		_ = r.claim(n, inst)
	}
}

// claim makes inst the member's boot instance. An instance another
// member holds is refused, so a task id never resolves to two nodes.
func (r *Registry) claim(n *node, inst int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o := r.byInst[inst]; o != nil && o != n {
		return fmt.Errorf("cluster: boot instance %d already reported by member %s", inst, o.name)
	}
	if inst != 0 && r.byName[n.name] == n {
		delete(r.byInst, n.inst)
		n.inst, r.byInst[inst] = inst, n
	}
	return nil
}

// State returns a node's current health (Down for unknown names).
func (r *Registry) State(name string) State {
	n, ok := r.lookup(name)
	if !ok {
		return Down
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// Alive reports whether the node is not Down. Suspect nodes count as
// alive: one failed probe must not eject a node that is merely slow,
// it only deprioritizes it (see Gateway ordering).
func (r *Registry) Alive(name string) bool { return r.State(name) != Down }

// ReportFailure records a transport-level request failure observed by
// the gateway, demoting the node exactly like a failed probe so
// failover does not wait for the next probe tick.
func (r *Registry) ReportFailure(name string, err error) {
	if n, ok := r.lookup(name); ok {
		n.fail(err)
	}
}

// ReportSuccess marks a node alive from the request path (any
// successful HTTP exchange proves liveness, including 4xx replies).
func (r *Registry) ReportSuccess(name string) {
	if n, ok := r.lookup(name); ok {
		n.ok(false)
	}
}

func (n *node) ok(probed bool) {
	n.mu.Lock()
	n.state = Alive
	n.fails = 0
	n.lastErr = ""
	if probed {
		n.lastProbe = time.Now()
	}
	n.mu.Unlock()
}

func (n *node) fail(err error) {
	n.mu.Lock()
	n.fails++
	if n.fails >= probeDownAfter {
		n.state = Down
	} else {
		n.state = Suspect
	}
	if err != nil {
		n.lastErr = err.Error()
	}
	n.mu.Unlock()
}

// ProbeAll probes every node once, synchronously (all nodes in
// parallel, bounded by the probe timeout). The gateway calls it at
// startup so the first request already sees real states; the probe
// loop calls it every interval. The round works off a snapshot of the
// node set, so a concurrent Add/Remove cannot race the map — a node
// added mid-round is probed next round, a removed one is probed once
// more into the void, harmlessly. A node reporting a boot instance
// another member holds fails its probe.
func (r *Registry) ProbeAll(ctx context.Context) {
	r.mu.RLock()
	attempts, base := r.retryAttempts, r.retryBase
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, n := range r.snapshot() {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			var inst int64
			var err error
			for a := 0; ; a++ {
				pctx, cancel := context.WithTimeout(ctx, r.tmo)
				inst, err = n.client.Health(pctx)
				cancel()
				if err == nil || a+1 >= attempts || ctx.Err() != nil {
					break
				}
				// A transient transport blip should not start the
				// suspect→down clock: retry within the round.
				r.retries.Add(1)
				backoffSleep(ctx, base, a)
			}
			n.mu.Lock()
			n.lastProbe = time.Now()
			n.mu.Unlock()
			if err == nil {
				err = r.claim(n, inst)
			}
			if err != nil {
				n.fail(err)
				return
			}
			n.ok(true)
		}(n)
	}
	wg.Wait()
}

// Start launches the background probe loop (idempotent). Stop ends
// it.
func (r *Registry) Start() {
	r.startOnce.Do(func() {
		r.started = true
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.probe)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					r.ProbeAll(context.Background())
				}
			}
		}()
	})
}

// Stop terminates the probe loop and waits for it to exit. Safe to
// call more than once, and without a prior Start.
func (r *Registry) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started {
		<-r.done
	}
}

// Snapshot returns per-node health for GET /cluster/nodes, in
// configured order.
func (r *Registry) Snapshot() []NodeInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeInfo, len(r.nodes))
	for i, n := range r.nodes {
		n.mu.Lock()
		info := NodeInfo{Name: n.name, State: n.state.String(), LastProbeMS: -1, LastError: n.lastErr, Instance: n.inst}
		if !n.lastProbe.IsZero() {
			info.LastProbeMS = time.Since(n.lastProbe).Milliseconds()
		}
		n.mu.Unlock()
		out[i] = info
	}
	return out
}
