// Package devirt implements the de-virtualization router of the paper
// (Section II-C): the small deterministic router that expands a Virtual
// Bit-Stream connection list into concrete switch states for one macro
// or one cluster of macros. The same algorithm runs in two places, by
// construction: offline inside the encoder's feedback loop (to prove a
// connection list decodable and re-order or fall back when it is not)
// and online inside the reconfiguration controller.
//
// A region is a rectangle of CW×CH macros decoded as one routing
// domain. Its conductors are the members' own horizontal/vertical
// wires and pin wires plus the incoming west/south boundary wires; its
// switches are exactly the members' switch inventories. Conductors on
// the region boundary are externally visible (they extend into
// neighbouring regions); interior conductors may be chosen freely by
// the router, which is where the Virtual Bit-Stream wins its
// compression: interior routing detail is never stored.
package devirt

import (
	"fmt"
	"sync"

	"repro/internal/arch"
)

// Region describes the shape of a de-virtualization domain.
type Region struct {
	// P is the macro architecture.
	P arch.Params
	// Nominal is the cluster size c used for the I/O code layout
	// (Section IV-B); the code space has 4*W*c + c²*L + 1 values.
	Nominal int
	// CW, CH are the actual member columns and rows (≤ Nominal;
	// smaller only for truncated regions at the task edge).
	CW, CH int
}

// Validate reports whether the region shape is usable.
func (r Region) Validate() error {
	if err := r.P.Validate(); err != nil {
		return err
	}
	if r.Nominal < 1 {
		return fmt.Errorf("devirt: nominal cluster size %d", r.Nominal)
	}
	if r.CW < 1 || r.CH < 1 || r.CW > r.Nominal || r.CH > r.Nominal {
		return fmt.Errorf("devirt: region %dx%d invalid for cluster size %d", r.CW, r.CH, r.Nominal)
	}
	return nil
}

// NumIOCodes returns the cluster I/O code space size, 4Wc + c²L + 1.
func (r Region) NumIOCodes() int {
	c := r.Nominal
	return 4*r.P.W*c + c*c*r.P.L() + 1
}

// MBits returns the connection endpoint width for this cluster size.
func (r Region) MBits() int {
	n := r.NumIOCodes()
	bitsN := 0
	for 1<<uint(bitsN) < n {
		bitsN++
	}
	return bitsN
}

// Members returns CW*CH.
func (r Region) Members() int { return r.CW * r.CH }

// memberIndex flattens member coordinates (column i, row j).
func (r Region) memberIndex(i, j int) int { return j*r.CW + i }

// Conductor indexing: members first, each contributing 2W+L conductors
// (own HW, own VW, pins), then C H rows of incoming west wires, then CW
// columns of incoming south wires.
func (r Region) perMember() int { return 2*r.P.W + r.P.L() }

// NumConds returns the conductor count of the region.
func (r Region) NumConds() int {
	return r.Members()*r.perMember() + (r.CH+r.CW)*r.P.W
}

func (r Region) condHW(i, j, t int) int { return r.memberIndex(i, j)*r.perMember() + t }
func (r Region) condVW(i, j, t int) int { return r.memberIndex(i, j)*r.perMember() + r.P.W + t }
func (r Region) condPin(i, j, p int) int {
	return r.memberIndex(i, j)*r.perMember() + 2*r.P.W + p
}
func (r Region) condInW(j, t int) int {
	return r.Members()*r.perMember() + j*r.P.W + t
}
func (r Region) condInS(i, t int) int {
	return r.Members()*r.perMember() + r.CH*r.P.W + i*r.P.W + t
}

// resolveLocal maps member (i,j)'s local conductor to the region index.
func (r Region) resolveLocal(i, j int, c arch.Cond) int {
	kind, idx := r.P.CondInfo(c)
	switch kind {
	case arch.KindHW:
		return r.condHW(i, j, idx)
	case arch.KindVW:
		return r.condVW(i, j, idx)
	case arch.KindInW:
		if i == 0 {
			return r.condInW(j, idx)
		}
		return r.condHW(i-1, j, idx)
	case arch.KindInS:
		if j == 0 {
			return r.condInS(i, idx)
		}
		return r.condVW(i, j-1, idx)
	default:
		return r.condPin(i, j, idx)
	}
}

// IOCode is a cluster-level I/O index as stored in the VBS: 0 is null;
// then W tracks per side row/column in the order West, South, East,
// North (Nominal rows/columns each); then the members' pins row-major.
type IOCode int

// CodeWest returns the I/O code of incoming west wire t of region row j.
func (r Region) CodeWest(j, t int) IOCode { return IOCode(1 + j*r.P.W + t) }

// CodeSouth returns the I/O code of incoming south wire t of column i.
func (r Region) CodeSouth(i, t int) IOCode {
	return IOCode(1 + r.Nominal*r.P.W + i*r.P.W + t)
}

// CodeEast returns the I/O code of the outgoing east wire t of row j
// (the east-column member's own horizontal wire).
func (r Region) CodeEast(j, t int) IOCode {
	return IOCode(1 + 2*r.Nominal*r.P.W + j*r.P.W + t)
}

// CodeNorth returns the I/O code of the outgoing north wire t of
// column i.
func (r Region) CodeNorth(i, t int) IOCode {
	return IOCode(1 + 3*r.Nominal*r.P.W + i*r.P.W + t)
}

// CodePin returns the I/O code of pin p of member (i, j).
func (r Region) CodePin(i, j, p int) IOCode {
	return IOCode(1 + 4*r.Nominal*r.P.W + (j*r.Nominal+i)*r.P.L() + p)
}

// CondForCode resolves an I/O code to a region conductor index, or an
// error for null, out-of-range, or codes outside the actual CW×CH
// shape.
func (r Region) CondForCode(code IOCode) (int, error) {
	c := int(code)
	if c <= 0 || c >= r.NumIOCodes() {
		return 0, fmt.Errorf("devirt: I/O code %d out of range (0,%d)", c, r.NumIOCodes())
	}
	c--
	w, nom, l := r.P.W, r.Nominal, r.P.L()
	side := 0
	for side < 4 && c >= nom*w {
		c -= nom * w
		side++
	}
	if side < 4 {
		major, t := c/w, c%w
		switch side {
		case 0: // West, rows
			if major >= r.CH {
				return 0, fmt.Errorf("devirt: west row %d outside region height %d", major, r.CH)
			}
			return r.condInW(major, t), nil
		case 1: // South, columns
			if major >= r.CW {
				return 0, fmt.Errorf("devirt: south column %d outside region width %d", major, r.CW)
			}
			return r.condInS(major, t), nil
		case 2: // East: own HW of last column
			if major >= r.CH {
				return 0, fmt.Errorf("devirt: east row %d outside region height %d", major, r.CH)
			}
			return r.condHW(r.CW-1, major, t), nil
		default: // North: own VW of last row
			if major >= r.CW {
				return 0, fmt.Errorf("devirt: north column %d outside region width %d", major, r.CW)
			}
			return r.condVW(major, r.CH-1, t), nil
		}
	}
	// Pins.
	member, p := c/l, c%l
	j, i := member/nom, member%nom
	if i >= r.CW || j >= r.CH {
		return 0, fmt.Errorf("devirt: pin member (%d,%d) outside %dx%d region", i, j, r.CW, r.CH)
	}
	return r.condPin(i, j, p), nil
}

// CodeForCond is the inverse of CondForCode for conductors that have
// I/O codes (boundary wires and pins); interior wires return 0 (null).
func (r Region) CodeForCond(cond int) IOCode {
	pm := r.perMember()
	members := r.Members()
	if cond >= members*pm {
		rest := cond - members*pm
		if rest < r.CH*r.P.W {
			return r.CodeWest(rest/r.P.W, rest%r.P.W)
		}
		rest -= r.CH * r.P.W
		return r.CodeSouth(rest/r.P.W, rest%r.P.W)
	}
	member, local := cond/pm, cond%pm
	j, i := member/r.CW, member%r.CW
	switch {
	case local < r.P.W: // own HW
		if i == r.CW-1 {
			return r.CodeEast(j, local)
		}
	case local < 2*r.P.W: // own VW
		if j == r.CH-1 {
			return r.CodeNorth(i, local-r.P.W)
		}
	default:
		return r.CodePin(i, j, local-2*r.P.W)
	}
	return 0
}

// CondPlace decomposes a region conductor into member space: the
// conductor kind, the member column i and row j it belongs to, and the
// track or pin index. Incoming boundary wires report the member whose
// switch box they enter (column 0 for KindInW, row 0 for KindInS).
func (r Region) CondPlace(cond int) (kind arch.CondKind, i, j, idx int) {
	pm := r.perMember()
	members := r.Members()
	if cond >= members*pm {
		rest := cond - members*pm
		if rest < r.CH*r.P.W {
			return arch.KindInW, 0, rest / r.P.W, rest % r.P.W
		}
		rest -= r.CH * r.P.W
		return arch.KindInS, rest / r.P.W, 0, rest % r.P.W
	}
	member, local := cond/pm, cond%pm
	j, i = member/r.CW, member%r.CW
	switch {
	case local < r.P.W:
		return arch.KindHW, i, j, local
	case local < 2*r.P.W:
		return arch.KindVW, i, j, local - r.P.W
	default:
		return arch.KindPin, i, j, local - 2*r.P.W
	}
}

// CodeInfo describes an I/O code for ordering heuristics: whether it
// names a pin, and for wires the track index (-1 for pins).
func (r Region) CodeInfo(code IOCode) (isPin bool, track int, err error) {
	cond, err := r.CondForCode(code)
	if err != nil {
		return false, -1, err
	}
	kind, _, _, idx := r.CondPlace(cond)
	if kind == arch.KindPin {
		return true, -1, nil
	}
	return false, idx, nil
}

// condClass classifies conductors for routing costs.
type condClass uint8

const (
	classInternalWire condClass = iota
	classBoundaryWire           // visible outside the region
	classInputPin               // usable as route-through
	classOutputPin              // never a route-through
)

// edge is one switch adjacency within the region graph. The switch's
// raw bit range is baked in so the commit path drives configuration
// bits without consulting arch.Params.Switches().
type edge struct {
	to     int32
	first  int32 // first raw bit of the switch in the member's config
	member int16 // member index owning the switch
	nbits  uint8 // raw bits driven by the switch (1, 3 or 6)
}

// bitset is a set of conductors, one bit each, in raw words: the
// search's sets are ANDed word against word, so no length or bounds
// bookkeeping rides along.
type bitset []uint64

func newBitset(conds int) bitset  { return make(bitset, (conds+63)>>6) }
func (b bitset) set(c int32)      { b[c>>6] |= 1 << uint(c&63) }
func (b bitset) unset(c int32)    { b[c>>6] &^= 1 << uint(c&63) }
func (b bitset) has(c int32) bool { return b[c>>6]>>uint(c&63)&1 != 0 }

// wordRow is one word of a conductor's neighbour set: the neighbours
// whose indices lie in [64w, 64w+64), one bit each.
type wordRow struct {
	mask uint64
	w    int32
}

// regionGraph is the immutable routing graph of a region shape, held
// twice. The search reads word rows: rows[rowOff[c]:rowOff[c+1]] is
// conductor c's neighbour set as (word, mask) pairs in ascending word
// order, so expanding c is an AND per pair instead of a load per edge.
// The commit path reads the switch edges in compressed sparse row (CSR)
// form: edges[adjOff[c]:adjOff[c+1]] are conductor c's, one flat
// allocation. Edge order within a conductor is the member then switch
// enumeration order, which fixes which switch joins a conductor pair
// (the first) — part of the router's deterministic tie-breaking.
type regionGraph struct {
	r      Region
	class  []condClass
	adjOff []int32
	edges  []edge
	rowOff []int32
	rows   []wordRow
	// inW and inS are the first incoming west and south wire: the
	// conductors from inW on exist only on an open fabric edge.
	inW, inS int32
	// codeCond is CondForCode precomputed over the whole I/O code
	// space: codeCond[code] is the conductor index, or -1 for the null
	// code and codes outside the actual CW×CH shape. It removes the
	// branchy side arithmetic from Reserve and RouteConnection.
	codeCond []int32
	// step is a blank router's step table on an open fabric: the class
	// traversal cost per conductor, 0 for output pins (never a
	// route-through). Routers copy it and keep their copy current.
	step []int32
	// avail is the same blank state as a bitset: bit c set iff
	// step[c] != 0.
	avail bitset
}

// row returns conductor c's neighbour set.
func (g *regionGraph) row(c int32) []wordRow { return g.rows[g.rowOff[c]:g.rowOff[c+1]] }

// firstEdge returns the first switch edge from conductor c to conductor
// to, in adjacency order. Where parallel switches join one pair, this is
// the one the router drives.
func (g *regionGraph) firstEdge(c, to int32) *edge {
	for k, end := g.adjOff[c], g.adjOff[c+1]; k < end; k++ {
		if g.edges[k].to == to {
			return &g.edges[k]
		}
	}
	return nil
}

// condFor is the hot-path CondForCode: table lookup, -1 for any
// invalid code.
func (g *regionGraph) condFor(code IOCode) int32 {
	if code <= 0 || int(code) >= len(g.codeCond) {
		return -1
	}
	return g.codeCond[code]
}

// cond is condFor with CondForCode's error for an invalid code.
func (g *regionGraph) cond(code IOCode) (int32, error) {
	c := g.condFor(code)
	if c < 0 {
		_, err := g.r.CondForCode(code)
		return c, err
	}
	return c, nil
}

var graphCache sync.Map // Region -> *regionGraph

// Warm pre-builds and caches the routing graph for a region shape, so
// the first decode touching that shape does not pay graph
// construction. Long-running managers call this when a VBS is stored,
// off the load critical path. Warming is idempotent and safe for
// concurrent use.
func Warm(r Region) error {
	if err := r.Validate(); err != nil {
		return err
	}
	graphFor(r)
	return nil
}

func graphFor(r Region) *regionGraph {
	if g, ok := graphCache.Load(r); ok {
		return g.(*regionGraph)
	}
	g := buildRegionGraph(r)
	actual, _ := graphCache.LoadOrStore(r, g)
	return actual.(*regionGraph)
}

func buildRegionGraph(r Region) *regionGraph {
	n := r.NumConds()
	g := &regionGraph{r: r, class: make([]condClass, n),
		inW: int32(r.condInW(0, 0)), inS: int32(r.condInS(0, 0))}
	// Classify conductors; step and avail are a blank router's view of
	// the class. A wire with an I/O code is visible outside the region.
	g.step = make([]int32, n)
	g.avail = newBitset(n)
	for c := 0; c < n; c++ {
		switch kind, _, _, idx := r.CondPlace(c); {
		case kind != arch.KindPin && r.CodeForCond(c) != 0:
			g.class[c], g.step[c] = classBoundaryWire, costBoundary
		case kind != arch.KindPin:
			g.class[c], g.step[c] = classInternalWire, costInternal
		case idx == r.P.OutputPin():
			g.class[c] = classOutputPin // driven by its LB: step 0
		default:
			g.class[c], g.step[c] = classInputPin, costInputPin
		}
		if g.step[c] != 0 {
			g.avail.set(int32(c))
		}
	}
	// Edges from every member's switch inventory, CSR-packed in two
	// passes. The fill pass visits switches in the same order the old
	// per-conductor append did, so per-conductor edge order (and with
	// it every routing tie-break) is unchanged.
	sws := r.P.Switches()
	deg := make([]int32, n+1)
	for i := 0; i < r.CW; i++ {
		for j := 0; j < r.CH; j++ {
			for _, sw := range sws {
				deg[r.resolveLocal(i, j, sw.A)+1]++
				deg[r.resolveLocal(i, j, sw.B)+1]++
			}
		}
	}
	g.adjOff = deg
	for c := 0; c < n; c++ {
		g.adjOff[c+1] += g.adjOff[c]
	}
	g.edges = make([]edge, g.adjOff[n])
	next := make([]int32, n)
	copy(next, g.adjOff[:n])
	for i := 0; i < r.CW; i++ {
		for j := 0; j < r.CH; j++ {
			m := int16(r.memberIndex(i, j))
			for _, sw := range sws {
				a := int32(r.resolveLocal(i, j, sw.A))
				b := int32(r.resolveLocal(i, j, sw.B))
				e := edge{first: int32(sw.FirstBit), member: m, nbits: uint8(sw.NumBits)}
				e.to = b
				g.edges[next[a]] = e
				next[a]++
				e.to = a
				g.edges[next[b]] = e
				next[b]++
			}
		}
	}
	g.buildRows()
	g.codeCond = make([]int32, r.NumIOCodes())
	for code := range g.codeCond {
		g.codeCond[code] = -1
		if c, err := r.CondForCode(IOCode(code)); err == nil {
			g.codeCond[code] = int32(c)
		}
	}
	return g
}

// buildRows derives the word rows from the CSR adjacency: per conductor
// the set of edge targets, one (word, mask) pair per non-empty word.
func (g *regionGraph) buildRows() {
	n := len(g.adjOff) - 1
	set := newBitset(n)
	g.rowOff = make([]int32, n+1)
	for c := 0; c < n; c++ {
		for _, e := range g.edges[g.adjOff[c]:g.adjOff[c+1]] {
			set.set(e.to)
		}
		for w, mask := range set {
			if mask != 0 {
				g.rows = append(g.rows, wordRow{mask: mask, w: int32(w)})
				set[w] = 0
			}
		}
		g.rowOff[c+1] = int32(len(g.rows))
	}
}
