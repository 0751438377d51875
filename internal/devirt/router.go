package devirt

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/bits"
)

// Conductor traversal costs. Interior resources are cheap; boundary
// wires are expensive as intermediates because a neighbouring region
// may use the same physical wire (the encoder's feedback loop catches
// the rare collisions and falls back to raw coding); input pin wires
// sit in between (route-throughs are legal but consume a possible
// later terminal).
const (
	costInternal = 2
	costInputPin = 3
	costBoundary = 9
	// costReserved is added when routing through a conductor that a
	// later connection names as an endpoint: legal, but it risks a
	// collision the feedback loop would then have to repair, so the
	// router only does it when no clean path exists.
	costReserved = 64
)

// Router decodes one region's connection list into switch states. It
// is the stateful router of Section II-C: connections are processed in
// list order, earlier connections claim conductors, and later
// connections must route around them. The same net may be extended by
// reusing an endpoint that is already claimed.
//
// A Router is reusable: Reset returns it to the blank state in time
// proportional to what the previous decode touched, which is what
// makes the shape-keyed router pool (AcquireRouter/Release) cheap.
type Router struct {
	g *regionGraph
	// closedW/closedS mark regions on the fabric's west/south edge,
	// where the incoming boundary wires physically do not exist.
	closedW, closedS bool

	owner    []int32 // conductor -> net id, -1 free
	reserved []bool  // endpoint conductors of the connection list
	// step is everything the search asks about stepping onto a
	// conductor, in one load: 0 when it cannot be an intermediate
	// (claimed, an output pin, or a wire on a closed fabric edge), else
	// its traversal cost, costReserved included. claim, Reserve, Reset
	// and setEdges keep it in line with owner/reserved/closed*.
	step    []int32
	nets    int32
	configs []*arch.MacroConfig // per member, switch bits only

	// Undo lists: every conductor claimed or reserved and every member
	// whose config was touched since the last Reset, so Reset is
	// O(touched) instead of O(NumConds).
	claimed   []int32
	resList   []int32
	dirty     []bool
	dirtyList []int32

	// Search scratch, epoch stamped.
	epoch  int32
	seenEp []int32
	dist   []int32
	par    []int32 // parent conductor
	parEdg []edge
	bq     bucketQueue

	// pool is the home pool when acquired via AcquireRouter; Release
	// returns the router there.
	pool *routerPool
}

// NewRouter returns a fresh router for the region. closedW and closedS
// mark fabric edges with no incoming west/south wires. Decode paths
// should prefer AcquireRouter, which reuses pooled routers of the same
// shape.
func NewRouter(r Region, closedW, closedS bool) (*Router, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	g := graphFor(r)
	n := r.NumConds()
	rt := &Router{
		g:        g,
		owner:    make([]int32, n),
		reserved: make([]bool, n),
		step:     slices.Clone(g.step),
		configs:  make([]*arch.MacroConfig, r.Members()),
		dirty:    make([]bool, r.Members()),
		seenEp:   make([]int32, n),
		dist:     make([]int32, n),
		par:      make([]int32, n),
		parEdg:   make([]edge, n),
	}
	rt.setEdges(closedW, closedS)
	for i := range rt.owner {
		rt.owner[i] = -1
	}
	for i := range rt.configs {
		rt.configs[i] = arch.NewMacroConfig(r.P)
	}
	return rt, nil
}

// setEdges installs the fabric-edge flags (they vary per acquisition,
// not per pooled router) on a blank router: the incoming wires of a
// closed edge stop being steppable, those of a reopened edge go back
// to their blank cost.
func (rt *Router) setEdges(closedW, closedS bool) {
	r := rt.g.r
	inW := r.Members() * r.perMember()
	inS := inW + r.CH*r.P.W
	if closedW != rt.closedW {
		rt.closedW = closedW
		rt.blankSteps(inW, inS)
	}
	if closedS != rt.closedS {
		rt.closedS = closedS
		rt.blankSteps(inS, len(rt.step))
	}
}

// blankStep is conductor c's step on a blank router with the current
// edge flags. Interior regions (both edges open, every pooled decode)
// skip the edge arithmetic.
func (rt *Router) blankStep(c int) int32 {
	if (rt.closedW || rt.closedS) && !rt.usable(c) {
		return 0
	}
	return rt.g.step[c]
}

func (rt *Router) blankSteps(from, to int) {
	for c := from; c < to; c++ {
		rt.step[c] = rt.blankStep(c)
	}
}

// Region returns the router's region shape.
func (rt *Router) Region() Region { return rt.g.r }

// Reset returns the router to the blank state for reuse. It undoes
// only what the previous decode touched: claimed and reserved
// conductors via the undo lists, and the configs of members whose
// switches were driven.
func (rt *Router) Reset() {
	for _, c := range rt.claimed {
		rt.owner[c] = -1
		rt.step[c] = rt.blankStep(int(c))
	}
	rt.claimed = rt.claimed[:0]
	for _, c := range rt.resList {
		rt.reserved[c] = false
		rt.step[c] = rt.blankStep(int(c))
	}
	rt.resList = rt.resList[:0]
	for _, m := range rt.dirtyList {
		rt.configs[m].Vec().Clear()
		rt.dirty[m] = false
	}
	rt.dirtyList = rt.dirtyList[:0]
	rt.nets = 0
}

// Reserve marks an endpoint conductor of the connection list. Routing
// through a reserved conductor is strongly penalized (it risks
// swallowing a later connection's terminal), so the router only does
// it when no cleaner path exists. The decoder reserves every endpoint
// of the list before routing; since the full list is available before
// decoding starts, this needs no extra information in the format.
func (rt *Router) Reserve(code IOCode) error {
	c := rt.g.condFor(code)
	if c < 0 {
		_, err := rt.g.r.CondForCode(code)
		return err
	}
	if !rt.reserved[c] {
		rt.reserved[c] = true
		rt.resList = append(rt.resList, c)
		if rt.step[c] != 0 {
			rt.step[c] += costReserved
		}
	}
	return nil
}

// usable reports whether a conductor may carry signal at all.
func (rt *Router) usable(c int) bool {
	r := rt.g.r
	pm := r.perMember()
	if c < r.Members()*pm {
		return true
	}
	rest := c - r.Members()*pm
	if rest < r.CH*r.P.W {
		return !rt.closedW
	}
	return !rt.closedS
}

// claim assigns a free conductor to net and records the undo entry.
func (rt *Router) claim(c int32, net int32) {
	rt.owner[c] = net
	rt.step[c] = 0
	rt.claimed = append(rt.claimed, c)
}

// RouteConnection realizes one (in, out) pair of the connection list.
// If in already belongs to a routed net, the net is extended from its
// whole tree; otherwise a new net starts at in. The chosen path claims
// its conductors and turns on the corresponding switches.
func (rt *Router) RouteConnection(in, out IOCode) error {
	a := rt.g.condFor(in)
	if a < 0 {
		_, err := rt.g.r.CondForCode(in)
		return err
	}
	b := rt.g.condFor(out)
	if b < 0 {
		_, err := rt.g.r.CondForCode(out)
		return err
	}
	if !rt.usable(int(a)) || !rt.usable(int(b)) {
		return fmt.Errorf("devirt: endpoint on closed fabric edge (%d->%d)", in, out)
	}
	var net int32
	switch {
	case rt.owner[a] >= 0:
		net = rt.owner[a]
	default:
		net = rt.nets
		rt.nets++
		rt.claim(a, net)
	}
	switch {
	case rt.owner[b] == net:
		return nil // already electrically connected
	case rt.owner[b] >= 0:
		return fmt.Errorf("devirt: endpoints %d and %d belong to different nets", in, out)
	}
	return rt.route(net, int(b))
}

// route runs deterministic Dijkstra from every conductor of net to the
// target, through free conductors only. The frontier is a monotone
// bucket queue (Dial's algorithm) popping in (distance, conductor)
// order.
//
// The search stops the first time an edge reaches the target, without
// queueing it. That is exact, not a heuristic: a step's cost depends
// only on the conductor stepped onto, so every parent candidate p of
// the target offers dist(p) + step(target), and the best parent is the
// one with the smallest (dist, conductor) pair — which, pops being
// monotone in exactly that pair, is the first one popped. Its first
// edge to the target is the edge a full drain would have kept (later
// offers are never strictly better), and the path behind it consists
// of popped conductors, whose dist/par are final. Draining on until
// the target itself pops cannot change the answer; it only costs, and
// it used to cost the whole region graph per connection, because the
// target — an endpoint, hence reserved — sat costReserved behind
// every other reachable conductor.
func (rt *Router) route(net int32, target int) error {
	if rt.epoch == math.MaxInt32 {
		// Epoch wrap: invalidate every stamp once, then restart.
		for i := range rt.seenEp {
			rt.seenEp[i] = 0
		}
		rt.epoch = 0
	}
	rt.epoch++
	rt.bq.reset()
	// Seeds: the net's claimed tree, found on the undo list (each
	// conductor is claimed at most once, so no duplicates).
	for _, c := range rt.claimed {
		if rt.owner[c] != net {
			continue
		}
		rt.seenEp[c] = rt.epoch
		rt.dist[c] = 0
		rt.par[c] = -1
		rt.bq.push(0, c)
	}
	g, step, tgt := rt.g, rt.step, int32(target)
	for {
		c, d, ok := rt.bq.pop()
		if !ok {
			break
		}
		if d > rt.dist[c] {
			continue // stale entry
		}
		for k, end := g.adjOff[c], g.adjOff[c+1]; k < end; k++ {
			e := &g.edges[k]
			to := e.to
			if to == tgt {
				rt.par[to] = c
				rt.parEdg[to] = *e
				rt.commit(net, target)
				return nil
			}
			w := step[to]
			if w == 0 {
				continue // claimed (tree conductors are seeds), output pin or closed edge
			}
			nd := d + w
			if rt.seenEp[to] == rt.epoch && nd >= rt.dist[to] {
				continue
			}
			rt.seenEp[to] = rt.epoch
			rt.dist[to] = nd
			rt.par[to] = c
			rt.parEdg[to] = *e
			rt.bq.push(nd, to)
		}
	}
	return fmt.Errorf("devirt: no path to conductor %d for net %d", target, net)
}

// commit claims the found path and drives its switches.
func (rt *Router) commit(net int32, target int) {
	c := int32(target)
	for c != -1 && rt.owner[c] != net {
		rt.claim(c, net)
		e := &rt.parEdg[c]
		m := int(e.member)
		if !rt.dirty[m] {
			rt.dirty[m] = true
			rt.dirtyList = append(rt.dirtyList, int32(m))
		}
		vec := rt.configs[m].Vec()
		for b := 0; b < int(e.nbits); b++ {
			vec.Set(int(e.first)+b, true)
		}
		c = rt.par[c]
	}
}

// Owner returns the net id claiming an I/O code's conductor, or -1.
func (rt *Router) Owner(code IOCode) (int, error) {
	c := rt.g.condFor(code)
	if c < 0 {
		_, err := rt.g.r.CondForCode(code)
		return 0, err
	}
	return int(rt.owner[c]), nil
}

// Configs returns the decoded per-member configurations (switch bits
// only; logic data is merged separately). Member (i, j) is at index
// j*CW+i.
//
// Ownership: the returned configurations are the router's own state.
// They are valid until the next Reset or Release; a caller that needs
// them to outlive the router (the controller's Decoded cache, for
// example) must copy them out — Clone, or MergeMember into its own
// storage — before the router goes back to the pool.
func (rt *Router) Configs() []*arch.MacroConfig { return rt.configs }

// MemberDirty reports whether the decode drove any switch of member m.
func (rt *Router) MemberDirty(m int) bool { return rt.dirty[m] }

// MergeMember ORs member m's routed switch bits into dst, word at a
// time, skipping members the decode never touched. This is the
// decode-into-place primitive: the caller points dst at the target
// fabric configuration and no intermediate MacroConfig is
// materialized.
func (rt *Router) MergeMember(m int, dst *bits.Vec) {
	if rt.dirty[m] {
		dst.OrAt(rt.configs[m].Vec(), 0)
	}
}

// ClaimedConds returns the conductor indices currently owned by any
// net, with their owner ids, in conductor order. Used by the encoder's
// feedback loop for cross-region conflict detection.
func (rt *Router) ClaimedConds() (conds []int, owners []int32) {
	for c, o := range rt.owner {
		if o >= 0 {
			conds = append(conds, c)
			owners = append(owners, o)
		}
	}
	return conds, owners
}
