package core

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/devirt"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
)

// EncodeOptions tunes vbsgen, the offline VBS generation backend
// (Section III-B).
type EncodeOptions struct {
	// Cluster is the coding granularity c (default 1).
	Cluster int
	// MaxReorder bounds connection-list re-ordering attempts per region
	// before falling back to raw coding (default 128; re-ordering is
	// cheap relative to the raw-payload cost of a fallback).
	MaxReorder int
	// DisableReorder skips the re-ordering step (ablation).
	DisableReorder bool
	// DisableFallback turns raw fallback into a hard error (ablation).
	DisableFallback bool
	// KeepEmptyRegions emits entries for unused regions (ablation of
	// the macro-skipping optimization).
	KeepEmptyRegions bool
	// SkipVerify skips the final decode-and-verify assertion. The
	// encoder's guarantees rest on that check; only benchmarks that
	// time encoding in isolation should set it.
	SkipVerify bool
}

func (o EncodeOptions) withDefaults() EncodeOptions {
	if o.Cluster == 0 {
		o.Cluster = 1
	}
	if o.MaxReorder == 0 {
		o.MaxReorder = 128
	}
	return o
}

// EncodeStats reports what the feedback loop did.
type EncodeStats struct {
	// Regions is the number of region tiles of the task.
	Regions int
	// UsedRegions counts regions with any logic or routing.
	UsedRegions int
	// CodedRegions counts regions coded as connection lists.
	CodedRegions int
	// RawRegions counts raw-coding fallbacks, split by cause.
	RawRegions        int
	CountFallbacks    int // route count exceeded the count field
	RouteFallbacks    int // de-virtualization could not route the list
	DeadEdgeFallbacks int // decode relied on wires missing at the task edge
	ConflictFallbacks int // cross-region conductor collision
	// ReorderedRegions counts regions whose list needed re-ordering.
	ReorderedRegions int
	// Connections is the total coded connection count.
	Connections int
}

type pairInfo struct {
	conn Conn
	net  netlist.NetID
}

// regionState carries one region through the feedback loop.
type regionState struct {
	rx, ry int
	x0, y0 int // macro origin
	reg    devirt.Region
	logic  []LogicItem
	pairs  []pairInfo
	raw    bool
	// decoded claims: parallel slices of claimed global wire nodes and
	// the design net claiming them.
	claimNodes []rrg.NodeID
	claimNets  []netlist.NetID
	reordered  bool
}

// Encode compresses a placed-and-routed design into a Virtual
// Bit-Stream. The offline feedback loop of Section III-B runs the
// online de-virtualization algorithm on every region, re-orders
// connection lists that fail to decode, falls back to raw coding where
// necessary, and finally proves the whole VBS decodes into a
// configuration electrically equivalent to the original routing.
func Encode(d *netlist.Design, pl *place.Placement, res *route.Result, opt EncodeOptions) (*VBS, *EncodeStats, error) {
	opt = opt.withDefaults()
	gr := res.Graph
	v := &VBS{
		P:       gr.P,
		Cluster: opt.Cluster,
		TaskW:   pl.Grid.Width,
		TaskH:   pl.Grid.Height,
	}
	stats := &EncodeStats{}
	wR, hR := v.RegionsW(), v.RegionsH()
	stats.Regions = wR * hR

	// Original raw bitstream: source of truth for fallback payloads and
	// the baseline claims of raw regions.
	rawOrig, err := bitstream.Generate(d, pl, res)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}

	states := make([]*regionState, wR*hR)
	for ry := 0; ry < hR; ry++ {
		for rx := 0; rx < wR; rx++ {
			states[ry*wR+rx] = &regionState{
				rx: rx, ry: ry,
				x0: rx * opt.Cluster, y0: ry * opt.Cluster,
				reg: v.Region(rx, ry),
			}
		}
	}

	// Logic payloads.
	for bi := range d.Blocks {
		loc := pl.Loc[bi]
		st := states[(loc.Y/opt.Cluster)*wR+loc.X/opt.Cluster]
		member := (loc.Y-st.y0)*opt.Cluster + (loc.X - st.x0)
		st.logic = append(st.logic, LogicItem{
			Member: member,
			Data:   bitstream.LogicVec(v.P, &d.Blocks[bi]),
		})
	}
	for _, st := range states {
		sort.Slice(st.logic, func(a, b int) bool { return st.logic[a].Member < st.logic[b].Member })
	}

	// Connection pairs from the routed trees.
	if err := extractPairs(v, d, pl, res, states); err != nil {
		return nil, nil, err
	}

	// Per-region feedback: decode, re-order, fall back.
	for _, st := range states {
		if len(st.pairs) == 0 {
			continue
		}
		if len(st.pairs) > v.MaxRoutes() {
			if opt.DisableFallback {
				return nil, nil, fmt.Errorf("core: region (%d,%d) needs %d connections, field holds %d",
					st.rx, st.ry, len(st.pairs), v.MaxRoutes())
			}
			st.raw = true
			stats.CountFallbacks++
			continue
		}
		ok, cause := decodeRegionWithReorder(v, gr, st, opt)
		if !ok {
			if opt.DisableFallback {
				return nil, nil, fmt.Errorf("core: region (%d,%d) not decodable: %s", st.rx, st.ry, cause)
			}
			st.raw = true
			switch cause {
			case "route":
				stats.RouteFallbacks++
			case "deadEdge":
				stats.DeadEdgeFallbacks++
			}
		}
	}

	// Cross-region conflict resolution: coded regions whose decoded
	// intermediates collide with another region's wires are demoted.
	for round := 0; round < len(states)+1; round++ {
		conflicted := findConflicts(states, d, res, gr, v)
		if len(conflicted) == 0 {
			break
		}
		if opt.DisableFallback {
			return nil, nil, fmt.Errorf("core: %d regions have cross-region conductor conflicts", len(conflicted))
		}
		for _, st := range conflicted {
			st.raw = true
			st.claimNodes, st.claimNets = nil, nil
			stats.ConflictFallbacks++
		}
	}

	// Assemble entries row-major.
	for _, st := range states {
		used := len(st.logic) > 0 || len(st.pairs) > 0 || st.raw
		if used {
			stats.UsedRegions++
		}
		if !used && !opt.KeepEmptyRegions {
			continue
		}
		e := Entry{X: st.rx, Y: st.ry, Logic: st.logic}
		if st.raw {
			e.Raw = true
			stats.RawRegions++
			cw, ch := v.RegionDims(st.rx, st.ry)
			for j := 0; j < ch; j++ {
				for i := 0; i < cw; i++ {
					e.RawBits = append(e.RawBits, rawOrig.At(st.x0+i, st.y0+j).RoutingBits())
				}
			}
		} else {
			if len(st.pairs) > 0 {
				stats.CodedRegions++
			}
			for _, pi := range st.pairs {
				e.Conns = append(e.Conns, pi.conn)
			}
			stats.Connections += len(e.Conns)
			if st.reordered {
				stats.ReorderedRegions++
			}
		}
		v.Entries = append(v.Entries, e)
	}

	if err := v.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: produced invalid VBS: %w", err)
	}
	if !opt.SkipVerify {
		// The feedback verification decodes the whole VBS through the
		// same parallel entry-level path the runtime controller uses.
		decoded, err := v.Decode(0)
		if err != nil {
			return nil, nil, fmt.Errorf("core: feedback decode: %w", err)
		}
		if err := bitstream.Verify(decoded, d, pl, gr); err != nil {
			return nil, nil, fmt.Errorf("core: feedback verification: %w", err)
		}
	}
	return v, stats, nil
}

// extractPairs walks every routed net tree and produces, per region,
// the connection list: for each electrically connected component the
// net forms inside the region, one (first terminal, other terminal)
// pair per additional terminal. Terminals are the net's pins in the
// region and the boundary wires the net also uses in an adjacent
// region; interior detail is deliberately dropped — that is the
// virtualization step.
func extractPairs(v *VBS, d *netlist.Design, pl *place.Placement, res *route.Result, states []*regionState) error {
	gr := res.Graph
	c := v.Cluster
	wR := v.RegionsW()
	regionOfMacro := func(m int32) int {
		x, y := pl.Grid.Coords(int(m))
		return (y/c)*wR + x/c
	}

	// Terminal pins: pin nodes that are net sources or sinks.
	termPin := make(map[rrg.NodeID]bool)
	for ni := range res.Routes {
		nr := &res.Routes[ni]
		termPin[nr.Source] = true
		for _, s := range nr.Sinks {
			termPin[s] = true
		}
	}

	for ni := range res.Routes {
		nr := &res.Routes[ni]
		if len(nr.Edges) == 0 {
			continue
		}
		// Group tree edges by region.
		edgesBy := make(map[int][]route.TreeEdge)
		nodeRegions := make(map[rrg.NodeID]map[int]bool)
		noteNode := func(n rrg.NodeID, reg int) {
			m := nodeRegions[n]
			if m == nil {
				m = make(map[int]bool, 2)
				nodeRegions[n] = m
			}
			m[reg] = true
		}
		for _, e := range nr.Edges {
			reg := regionOfMacro(e.Macro)
			edgesBy[reg] = append(edgesBy[reg], e)
			noteNode(e.From, reg)
			noteNode(e.To, reg)
		}

		for reg, edges := range edgesBy {
			st := states[reg]
			// Local union-find over the nodes this region's edges touch.
			idx := make(map[rrg.NodeID]int)
			var nodes []rrg.NodeID
			indexOf := func(n rrg.NodeID) int {
				if i, ok := idx[n]; ok {
					return i
				}
				i := len(nodes)
				idx[n] = i
				nodes = append(nodes, n)
				return i
			}
			parent := make([]int, 0, 2*len(edges))
			var find func(int) int
			find = func(x int) int {
				for parent[x] != x {
					parent[x] = parent[parent[x]]
					x = parent[x]
				}
				return x
			}
			for _, e := range edges {
				a, b := indexOf(e.From), indexOf(e.To)
				for len(parent) < len(nodes) {
					parent = append(parent, len(parent))
				}
				ra, rb := find(a), find(b)
				if ra != rb {
					if ra > rb {
						ra, rb = rb, ra
					}
					parent[rb] = ra
				}
			}
			// Terminals per component.
			byComp := make(map[int][]devirt.IOCode)
			for i, n := range nodes {
				code, isTerm, err := terminalCode(gr, v, st, n, termPin, nodeRegions[n], reg)
				if err != nil {
					return fmt.Errorf("core: net %q: %w", d.Nets[ni].Name, err)
				}
				if !isTerm {
					continue
				}
				root := find(i)
				byComp[root] = append(byComp[root], code)
			}
			roots := make([]int, 0, len(byComp))
			for root := range byComp {
				roots = append(roots, root)
			}
			sort.Ints(roots)
			for _, root := range roots {
				terms := byComp[root]
				if len(terms) < 2 {
					continue // local stub, electrically irrelevant
				}
				sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
				for _, t := range terms[1:] {
					st.pairs = append(st.pairs, pairInfo{
						conn: Conn{In: terms[0], Out: t},
						net:  netlist.NetID(ni),
					})
				}
			}
		}
	}
	// Deterministic region pair order: most-constrained connections
	// first. A wire-to-wire connection on one track has essentially a
	// single path through the disjoint switch boxes; pin connections
	// can fall back to any free junction. Routing the rigid pairs
	// before the flexible ones sharply reduces de-virtualization
	// failures (and therefore raw fallbacks). Ties break on net and
	// code order so the list is reproducible.
	for _, st := range states {
		cls := make([]int, len(st.pairs))
		for i := range st.pairs {
			cls[i] = pairFlexibility(st.reg, st.pairs[i].conn)
		}
		order := make([]int, len(st.pairs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			a, b := order[x], order[y]
			if cls[a] != cls[b] {
				return cls[a] < cls[b]
			}
			if st.pairs[a].net != st.pairs[b].net {
				return st.pairs[a].net < st.pairs[b].net
			}
			if st.pairs[a].conn.In != st.pairs[b].conn.In {
				return st.pairs[a].conn.In < st.pairs[b].conn.In
			}
			return st.pairs[a].conn.Out < st.pairs[b].conn.Out
		})
		sorted := make([]pairInfo, len(st.pairs))
		for i, idx := range order {
			sorted[i] = st.pairs[idx]
		}
		st.pairs = sorted
	}
	return nil
}

// pairFlexibility ranks a connection by how many distinct paths can
// realize it: 0 = wire to wire on one track (rigid), 1 = wire to wire
// across tracks, 2 = wire to pin, 3 = pin to pin (most flexible).
func pairFlexibility(reg devirt.Region, c Conn) int {
	inPin, inTrack, err1 := reg.CodeInfo(c.In)
	outPin, outTrack, err2 := reg.CodeInfo(c.Out)
	if err1 != nil || err2 != nil {
		return 4
	}
	switch {
	case !inPin && !outPin && inTrack == outTrack:
		return 0
	case !inPin && !outPin:
		return 1
	case inPin != outPin:
		return 2
	default:
		return 3
	}
}

// terminalCode decides whether node n is a terminal of the region and
// returns its cluster I/O code. Pins are terminals when they are net
// sources or sinks; wires are terminals when the net uses them from
// more than one region.
func terminalCode(gr *rrg.Graph, v *VBS, st *regionState, n rrg.NodeID,
	termPin map[rrg.NodeID]bool, useRegions map[int]bool, reg int) (devirt.IOCode, bool, error) {

	x, y, kind, idx := gr.NodeInfo(n)
	r := st.reg
	switch kind {
	case rrg.NodePinWire:
		if !termPin[n] {
			return 0, false, nil // route-through pin: interior detail
		}
		return r.CodePin(x-st.x0, y-st.y0, idx), true, nil
	case rrg.NodeHWire:
		if len(useRegions) < 2 {
			return 0, false, nil
		}
		// Used by two regions: this horizontal wire crosses between its
		// own macro's region and the east neighbour's.
		switch {
		case x-st.x0 == r.CW-1 && insideRegion(st, x, y):
			return r.CodeEast(y-st.y0, idx), true, nil
		case x == st.x0-1:
			return r.CodeWest(y-st.y0, idx), true, nil
		}
		return 0, false, fmt.Errorf("h-wire %s is not on region (%d,%d) boundary", gr.NodeName(n), st.rx, st.ry)
	default: // vertical wire
		if len(useRegions) < 2 {
			return 0, false, nil
		}
		switch {
		case y-st.y0 == r.CH-1 && insideRegion(st, x, y):
			return r.CodeNorth(x-st.x0, idx), true, nil
		case y == st.y0-1:
			return r.CodeSouth(x-st.x0, idx), true, nil
		}
		return 0, false, fmt.Errorf("v-wire %s is not on region (%d,%d) boundary", gr.NodeName(n), st.rx, st.ry)
	}
}

func insideRegion(st *regionState, x, y int) bool {
	return x >= st.x0 && x < st.x0+st.reg.CW && y >= st.y0 && y < st.y0+st.reg.CH
}

// decodeRegionWithReorder runs the de-virtualization router on the
// region's pair list, promoting failing pairs to the front of the list
// (the paper's re-ordering step) until the list decodes or the retry
// budget runs out. On success it records the region's claimed wire
// nodes for conflict checking. Returns ok and a failure cause.
func decodeRegionWithReorder(v *VBS, gr *rrg.Graph, st *regionState, opt EncodeOptions) (bool, string) {
	attempts := opt.MaxReorder
	if opt.DisableReorder {
		attempts = 0
	}
	rt, err := devirt.AcquireRouter(st.reg, false, false)
	if err != nil {
		return false, "route"
	}
	defer rt.Release()
	for try := 0; ; try++ {
		rt.Reset()
		// Mirror the decoder exactly: reserve every endpoint first.
		for _, pi := range st.pairs {
			if err := rt.Reserve(pi.conn.In); err != nil {
				return false, "route"
			}
			if err := rt.Reserve(pi.conn.Out); err != nil {
				return false, "route"
			}
		}
		// The online decoder has no net identities, so a pair whose In
		// endpoint was swallowed by another net's path would silently
		// extend the wrong net. The feedback loop tracks which design
		// net owns each local net and treats such hijacks as routing
		// failures, exactly like an unroutable pair.
		localOf := make(map[int]netlist.NetID)
		failed := -1
		for i, pi := range st.pairs {
			before, _ := rt.Owner(pi.conn.In)
			if before >= 0 && localOf[before] != pi.net {
				failed = i
				break
			}
			if err := rt.RouteConnection(pi.conn.In, pi.conn.Out); err != nil {
				failed = i
				break
			}
			after, _ := rt.Owner(pi.conn.In)
			if before < 0 {
				localOf[after] = pi.net
			}
		}
		if failed < 0 {
			dead := collectClaims(v, gr, st, rt, localOf)
			if dead {
				return false, "deadEdge"
			}
			return true, ""
		}
		if try >= attempts || failed == 0 {
			return false, "route"
		}
		// Promote the failing pair to the front so it routes before the
		// connections that starved it of conductors.
		st.reordered = true
		promoted := st.pairs[failed]
		rest := append(append([]pairInfo{}, st.pairs[:failed]...), st.pairs[failed+1:]...)
		st.pairs = append([]pairInfo{promoted}, rest...)
	}
}

// collectClaims maps the router's claimed conductors to global wire
// nodes, tagging each with its design net (via the feedback loop's
// local-net table). It reports whether any claim lies on a wire that
// does not exist at the task origin (dead edge), which forces raw
// fallback to keep decode position-free.
func collectClaims(v *VBS, gr *rrg.Graph, st *regionState, rt *devirt.Router, localOf map[int]netlist.NetID) (dead bool) {
	conds, owners := rt.ClaimedConds()
	st.claimNodes = st.claimNodes[:0]
	st.claimNets = st.claimNets[:0]
	for k, cond := range conds {
		kind, i, j, idx := st.reg.CondPlace(cond)
		var n rrg.NodeID
		switch kind {
		case arch.KindHW:
			n = gr.NodeHW(st.x0+i, st.y0+j, idx)
		case arch.KindVW:
			n = gr.NodeVW(st.x0+i, st.y0+j, idx)
		case arch.KindInW:
			if st.x0 == 0 {
				return true
			}
			n = gr.NodeHW(st.x0-1, st.y0+j, idx)
		case arch.KindInS:
			if st.y0 == 0 {
				return true
			}
			n = gr.NodeVW(st.x0+i, st.y0-1, idx)
		default:
			continue // pins are region-local, no cross-region conflicts
		}
		net, ok := localOf[int(owners[k])]
		if !ok {
			net = netlist.NoNet
		}
		st.claimNodes = append(st.claimNodes, n)
		st.claimNets = append(st.claimNets, net)
	}
	return false
}

// findConflicts returns the coded regions whose decoded wire claims
// collide with another region's claims (decoded or original).
func findConflicts(states []*regionState, d *netlist.Design, res *route.Result, gr *rrg.Graph, v *VBS) []*regionState {
	type holder struct {
		net netlist.NetID
		st  *regionState // nil for raw/original claims
	}
	claims := make(map[rrg.NodeID]holder)
	conflicted := make(map[*regionState]bool)
	record := func(n rrg.NodeID, net netlist.NetID, st *regionState) {
		if prev, ok := claims[n]; ok {
			if prev.net == net {
				return
			}
			if prev.st != nil {
				conflicted[prev.st] = true
			}
			if st != nil {
				conflicted[st] = true
			}
			return
		}
		claims[n] = holder{net: net, st: st}
	}

	// Raw regions (and regions with no coded routing) contribute the
	// original routing's wire usage, which is self-consistent by
	// construction. A wire is attributed to every region whose switches
	// the net uses it through.
	c := v.Cluster
	wR := v.RegionsW()
	for ni := range res.Routes {
		for _, e := range res.Routes[ni].Edges {
			x, y := gr.G.Coords(int(e.Macro))
			st := states[(y/c)*wR+x/c]
			if !st.raw && len(st.pairs) > 0 {
				continue // this region's usage is the decoded one
			}
			for _, n := range [2]rrg.NodeID{e.From, e.To} {
				_, _, kind, _ := gr.NodeInfo(n)
				if kind == rrg.NodePinWire {
					continue
				}
				record(n, netlist.NetID(ni), nil)
			}
		}
	}
	for _, st := range states {
		if st.raw || len(st.pairs) == 0 {
			continue
		}
		for k, n := range st.claimNodes {
			record(n, st.claimNets[k], st)
		}
	}

	out := make([]*regionState, 0, len(conflicted))
	for st := range conflicted {
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].ry*wR+out[a].rx < out[b].ry*wR+out[b].rx
	})
	return out
}
