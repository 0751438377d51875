package devirt

import (
	"fmt"
	mathbits "math/bits"
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
	step []int32
	// avail is step as a bitset — bit c set iff step[c] != 0 — kept
	// current by the same four.
	avail bitset
	// netNext links every net's claimed conductors into a ring: the
	// seeds of a search that extends the net, reachable from any member.
	netNext []int32
	nets    int32
	configs []*arch.MacroConfig // per member, switch bits only

	// Undo lists: every conductor claimed or reserved and every member
	// whose config was touched since the last Reset, so Reset is
	// O(touched) instead of O(NumConds).
	claimed   []int32
	resList   []int32
	dirty     []bool
	dirtyList []int32

	// Search scratch. live is avail minus what the running search has
	// discovered; near is the target's neighbour set as a dense bitset;
	// par is the parent of every discovered conductor. near and fr are
	// all-zero between searches.
	live bitset
	near bitset
	par  []int32
	fr   frontier

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
	return newRouter(graphFor(r), closedW, closedS), nil
}

func newRouter(g *regionGraph, closedW, closedS bool) *Router {
	r := g.r
	n := r.NumConds()
	rt := &Router{
		g:        g,
		owner:    make([]int32, n),
		reserved: make([]bool, n),
		step:     slices.Clone(g.step),
		avail:    slices.Clone(g.avail),
		netNext:  make([]int32, n),
		configs:  make([]*arch.MacroConfig, r.Members()),
		dirty:    make([]bool, r.Members()),
		live:     newBitset(n),
		near:     newBitset(n),
		par:      make([]int32, n),
		fr:       newFrontier(len(g.avail)),
	}
	rt.setEdges(closedW, closedS)
	for i := range rt.owner {
		rt.owner[i] = -1
	}
	for i := range rt.configs {
		rt.configs[i] = arch.NewMacroConfig(r.P)
	}
	return rt
}

// setEdges installs the fabric-edge flags (they vary per acquisition,
// not per pooled router) on a blank router: the incoming wires of a
// closed edge stop being steppable, those of a reopened edge go back
// to their blank cost.
func (rt *Router) setEdges(closedW, closedS bool) {
	g := rt.g
	if closedW != rt.closedW {
		rt.closedW = closedW
		for c := g.inW; c < g.inS; c++ {
			rt.restore(c)
		}
	}
	if closedS != rt.closedS {
		rt.closedS = closedS
		for c := g.inS; c < int32(len(rt.step)); c++ {
			rt.restore(c)
		}
	}
}

// usable reports whether a conductor may carry signal at all: the
// incoming wires of a closed fabric edge do not exist.
func (rt *Router) usable(c int32) bool {
	return !(rt.closedW && c >= rt.g.inW && c < rt.g.inS) && !(rt.closedS && c >= rt.g.inS)
}

// restore puts conductor c's step and avail bit back to the blank
// state under the current edge flags.
func (rt *Router) restore(c int32) {
	s := rt.g.step[c]
	if !rt.usable(c) {
		s = 0
	}
	rt.step[c] = s
	if s != 0 {
		rt.avail.set(c)
	} else {
		rt.avail.unset(c)
	}
}

// Reset returns the router to the blank state for reuse. It undoes
// only what the previous decode touched: claimed and reserved
// conductors via the undo lists, and the configs of members whose
// switches were driven.
func (rt *Router) Reset() {
	for _, c := range rt.claimed {
		rt.owner[c] = -1
		rt.restore(c)
	}
	rt.claimed = rt.claimed[:0]
	for _, c := range rt.resList {
		rt.reserved[c] = false
		rt.restore(c)
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
	c, err := rt.g.cond(code)
	if err != nil {
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

// claim assigns a free conductor to net and records the undo entry.
func (rt *Router) claim(c int32, net int32) {
	rt.owner[c] = net
	rt.step[c] = 0
	rt.avail.unset(c)
	rt.claimed = append(rt.claimed, c)
}

// RouteConnection realizes one (in, out) pair of the connection list.
// If in already belongs to a routed net, the net is extended from its
// whole tree; otherwise a new net starts at in. The chosen path claims
// its conductors and turns on the corresponding switches.
func (rt *Router) RouteConnection(in, out IOCode) error {
	a, err := rt.g.cond(in)
	if err != nil {
		return err
	}
	b, err := rt.g.cond(out)
	if err != nil {
		return err
	}
	if !rt.usable(a) || !rt.usable(b) {
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
		rt.netNext[a] = a
	}
	switch {
	case rt.owner[b] == net:
		return nil // already electrically connected
	case rt.owner[b] >= 0:
		return fmt.Errorf("devirt: endpoints %d and %d belong to different nets", in, out)
	}
	return rt.route(net, a, b)
}

// route runs deterministic Dijkstra from net's claimed tree to the
// target, through free conductors only, popping in (distance,
// conductor) order — on word masks. It is bit-identical to a heap search
// that stores a distance and a parent edge per relaxation and drains
// until the target pops (docs/ARCHITECTURE.md has the long form):
//
//  1. First offer is final. A step's cost depends only on the conductor
//     stepped onto and pops are monotone in (dist, cond), so a
//     conductor's first popped neighbour offers it its final distance,
//     and a later offer is never strictly better. live therefore starts
//     as avail and loses a conductor the moment it is discovered.
//  2. Lowest set bit is the sorted bucket: the frontier drains each
//     distance's bitset in ascending conductor order.
//  3. The target test is symmetric. Switches are undirected, so the
//     first popped conductor found in the target's own row (near) is the
//     parent a full drain would keep; the target is never queued.
//  4. First-edge commit. The switch a relaxation would have recorded is
//     the first edge to the conductor in its parent's adjacency; commit
//     looks it up there.
func (rt *Router) route(net, from, target int32) error {
	g, step, live, near, par, fr := rt.g, rt.step, rt.live, rt.near, rt.par, &rt.fr
	copy(live, rt.avail)
	trow := g.row(target)
	for _, p := range trow {
		near[p.w] = p.mask
	}
	// Seeds: the net's claimed tree, the ring through from. Claimed
	// conductors are not in avail, so the search never re-discovers them.
	fr.push(0, from)
	for c := rt.netNext[from]; c != from; c = rt.netNext[c] {
		fr.push(0, c)
	}
	found := false
	for {
		c, d, ok := fr.pop()
		if !ok {
			break
		}
		if near.has(c) {
			par[target] = c
			found = true
			break
		}
		for _, p := range g.row(c) {
			fresh := p.mask & live[p.w]
			if fresh == 0 {
				continue
			}
			live[p.w] &^= fresh
			base := p.w << 6
			for ; fresh != 0; fresh &= fresh - 1 {
				to := base + int32(mathbits.TrailingZeros64(fresh))
				par[to] = c
				fr.push(d+step[to], to)
			}
		}
	}
	fr.reset()
	for _, p := range trow {
		near[p.w] = 0
	}
	if !found {
		return fmt.Errorf("devirt: no path to conductor %d for net %d", target, net)
	}
	rt.commit(net, from, target)
	return nil
}

// commit claims the found path into the net's ring and drives its
// switches: for every conductor on it, the first edge from its parent
// in adjacency order.
func (rt *Router) commit(net, from, c int32) {
	for rt.owner[c] != net {
		p := rt.par[c]
		rt.claim(c, net)
		rt.netNext[c], rt.netNext[from] = rt.netNext[from], c
		e := rt.g.firstEdge(p, c)
		m := int(e.member)
		if !rt.dirty[m] {
			rt.dirty[m] = true
			rt.dirtyList = append(rt.dirtyList, int32(m))
		}
		vec := rt.configs[m].Vec()
		for b := 0; b < int(e.nbits); b++ {
			vec.Set(int(e.first)+b, true)
		}
		c = p
	}
}

// Owner returns the net id claiming an I/O code's conductor, or -1.
func (rt *Router) Owner(code IOCode) (int, error) {
	c, err := rt.g.cond(code)
	if err != nil {
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
