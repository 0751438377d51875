// Package place implements VPR-style simulated-annealing placement
// (Betz & Rose, FPL 1997): bounding-box wirelength cost with the
// canonical crossing-count compensation, an adaptive temperature
// schedule driven by move acceptance rate, and a shrinking move range
// limit. Logic blocks occupy the interior of the grid; I/O pads occupy
// the perimeter ring, one pad per macro.
package place

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/netlist"
)

// Loc is a macro coordinate on the fabric.
type Loc struct{ X, Y int }

// Placement assigns every block of a design to a distinct legal macro.
type Placement struct {
	Grid arch.Grid
	// Loc[b] is the location of block b.
	Loc []Loc
	// occ maps grid index -> block, or netlist.NoBlock.
	occ []netlist.BlockID
}

// Validate checks that the placement is legal for the design: every
// block placed exactly once on a cell of the right class, no overlap.
func (p *Placement) Validate(d *netlist.Design) error {
	if len(p.Loc) != len(d.Blocks) {
		return fmt.Errorf("place: %d locations for %d blocks", len(p.Loc), len(d.Blocks))
	}
	seen := make(map[int]netlist.BlockID)
	for b, loc := range p.Loc {
		if !p.Grid.Contains(loc.X, loc.Y) {
			return fmt.Errorf("place: block %d at (%d,%d) off grid", b, loc.X, loc.Y)
		}
		idx := p.Grid.Index(loc.X, loc.Y)
		if prev, dup := seen[idx]; dup {
			return fmt.Errorf("place: blocks %d and %d overlap at (%d,%d)", prev, b, loc.X, loc.Y)
		}
		seen[idx] = netlist.BlockID(b)
		if p.occ[idx] != netlist.BlockID(b) {
			return fmt.Errorf("place: occupancy table inconsistent at (%d,%d)", loc.X, loc.Y)
		}
		isPad := d.Blocks[b].Kind != netlist.LogicBlock
		if isPad != p.Grid.IsPerimeter(loc.X, loc.Y) {
			return fmt.Errorf("place: block %d (%v) at illegal cell (%d,%d)",
				b, d.Blocks[b].Kind, loc.X, loc.Y)
		}
	}
	return nil
}

// Options tunes the annealer.
type Options struct {
	// Seed makes placement deterministic.
	Seed int64
	// InnerNum scales moves per temperature (VPR default 10; use 1 for
	// quick runs). Zero selects the default.
	InnerNum float64
	// FastExit stops the schedule early at a looser exit criterion,
	// trading quality for time. Used by tests and quick benches.
	FastExit bool
}

// crossing is VPR's net-terminal crossing-count compensation table:
// expected wire crossings of a net's bounding box, by terminal count.
var crossing = []float64{
	1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
	1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709,
	1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379, 2.0743,
	2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271,
	2.3583, 2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610,
	2.5864, 2.6117, 2.6371, 2.6625, 2.6887, 2.7148, 2.7410, 2.7671,
	2.7933,
}

func crossingCount(terminals int) float64 {
	if terminals < len(crossing) {
		return crossing[terminals]
	}
	// Linear extrapolation used by VPR beyond 50 terminals.
	return 2.7933 + 0.02616*float64(terminals-50)
}

// bbox is a net's bounding box with terminal counts on each edge, so
// single moves update it incrementally most of the time.
type bbox struct {
	xmin, xmax, ymin, ymax int
}

type placer struct {
	d    *netlist.Design
	g    arch.Grid
	rng  *rand.Rand
	loc  []Loc
	occ  []netlist.BlockID
	bb   []bbox
	cost float64
	// netsOf[b] lists the nets touching block b (deduplicated).
	netsOf [][]netlist.NetID
	// interior and ring enumerate legal cells per block class.
	interior []Loc
	ring     []Loc
}

// Place runs simulated annealing and returns a legal placement.
func Place(d *netlist.Design, g arch.Grid, opt Options) (*Placement, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	p := &placer{
		d: d, g: g,
		rng: rand.New(rand.NewSource(opt.Seed)),
		loc: make([]Loc, len(d.Blocks)),
		occ: make([]netlist.BlockID, g.NumMacros()),
	}
	for x := 0; x < g.Width; x++ {
		for y := 0; y < g.Height; y++ {
			if g.IsPerimeter(x, y) {
				p.ring = append(p.ring, Loc{x, y})
			} else {
				p.interior = append(p.interior, Loc{x, y})
			}
		}
	}
	nPads := d.CountKind(netlist.InputPad) + d.CountKind(netlist.OutputPad)
	if d.NumLogicBlocks() > len(p.interior) {
		return nil, fmt.Errorf("place: %d logic blocks exceed %d interior cells of %dx%d grid",
			d.NumLogicBlocks(), len(p.interior), g.Width, g.Height)
	}
	if nPads > len(p.ring) {
		return nil, fmt.Errorf("place: %d pads exceed %d perimeter cells", nPads, len(p.ring))
	}

	p.buildNetsOf()
	p.initialPlacement()
	p.recomputeAll()
	p.anneal(opt)

	out := &Placement{Grid: g, Loc: p.loc, occ: p.occ}
	if err := out.Validate(d); err != nil {
		return nil, fmt.Errorf("place: internal: %w", err)
	}
	return out, nil
}

func (p *placer) buildNetsOf() {
	p.netsOf = make([][]netlist.NetID, len(p.d.Blocks))
	seen := make([]netlist.NetID, len(p.d.Blocks))
	for i := range seen {
		seen[i] = netlist.NoNet
	}
	add := func(b netlist.BlockID, n netlist.NetID) {
		if seen[b] == n {
			return // consecutive duplicate (multiple pins on one net)
		}
		for _, e := range p.netsOf[b] {
			if e == n {
				return
			}
		}
		p.netsOf[b] = append(p.netsOf[b], n)
		seen[b] = n
	}
	for ni, net := range p.d.Nets {
		add(net.Driver, netlist.NetID(ni))
		for _, s := range net.Sinks {
			add(s.Block, netlist.NetID(ni))
		}
	}
}

func (p *placer) initialPlacement() {
	for i := range p.occ {
		p.occ[i] = netlist.NoBlock
	}
	ringPerm := p.rng.Perm(len(p.ring))
	intPerm := p.rng.Perm(len(p.interior))
	ri, ii := 0, 0
	for b, blk := range p.d.Blocks {
		var l Loc
		if blk.Kind == netlist.LogicBlock {
			l = p.interior[intPerm[ii]]
			ii++
		} else {
			l = p.ring[ringPerm[ri]]
			ri++
		}
		p.loc[b] = l
		p.occ[p.g.Index(l.X, l.Y)] = netlist.BlockID(b)
	}
}

// netBBox computes a net's bounding box from scratch.
func (p *placer) netBBox(n netlist.NetID) bbox {
	net := &p.d.Nets[n]
	l := p.loc[net.Driver]
	bb := bbox{l.X, l.X, l.Y, l.Y}
	for _, s := range net.Sinks {
		sl := p.loc[s.Block]
		if sl.X < bb.xmin {
			bb.xmin = sl.X
		}
		if sl.X > bb.xmax {
			bb.xmax = sl.X
		}
		if sl.Y < bb.ymin {
			bb.ymin = sl.Y
		}
		if sl.Y > bb.ymax {
			bb.ymax = sl.Y
		}
	}
	return bb
}

func (p *placer) netCost(n netlist.NetID, bb bbox) float64 {
	t := len(p.d.Nets[n].Sinks) + 1
	return crossingCount(t) * float64(bb.xmax-bb.xmin+bb.ymax-bb.ymin)
}

func (p *placer) recomputeAll() {
	p.bb = make([]bbox, len(p.d.Nets))
	p.cost = 0
	for n := range p.d.Nets {
		p.bb[n] = p.netBBox(netlist.NetID(n))
		p.cost += p.netCost(netlist.NetID(n), p.bb[n])
	}
}

// proposeTarget picks a random legal cell for block b within rlim of
// its current location.
func (p *placer) proposeTarget(b netlist.BlockID, rlim int) (Loc, bool) {
	cur := p.loc[b]
	isLB := p.d.Blocks[b].Kind == netlist.LogicBlock
	for try := 0; try < 12; try++ {
		dx := p.rng.Intn(2*rlim+1) - rlim
		dy := p.rng.Intn(2*rlim+1) - rlim
		t := Loc{cur.X + dx, cur.Y + dy}
		if t == cur || !p.g.Contains(t.X, t.Y) {
			continue
		}
		if isLB == p.g.IsPerimeter(t.X, t.Y) {
			continue
		}
		return t, true
	}
	// Fall back to any legal cell of the right class.
	if isLB {
		return p.interior[p.rng.Intn(len(p.interior))], true
	}
	return p.ring[p.rng.Intn(len(p.ring))], true
}

// affectedNets collects the distinct nets touching the moved blocks.
func (p *placer) affectedNets(a netlist.BlockID, b netlist.BlockID, scratch []netlist.NetID) []netlist.NetID {
	scratch = scratch[:0]
	scratch = append(scratch, p.netsOf[a]...)
	if b != netlist.NoBlock {
	outer:
		for _, n := range p.netsOf[b] {
			for _, e := range scratch {
				if e == n {
					continue outer
				}
			}
			scratch = append(scratch, n)
		}
	}
	return scratch
}

// applyMove moves block b to target t, swapping with any occupant, and
// returns the displaced occupant (or NoBlock). Rejected moves are
// reversed with undoMove.
func (p *placer) applyMove(b netlist.BlockID, t Loc) (occupant netlist.BlockID) {
	from := p.loc[b]
	fi, ti := p.g.Index(from.X, from.Y), p.g.Index(t.X, t.Y)
	occupant = p.occ[ti]
	p.loc[b] = t
	p.occ[ti] = b
	if occupant != netlist.NoBlock {
		p.loc[occupant] = from
		p.occ[fi] = occupant
	} else {
		p.occ[fi] = netlist.NoBlock
	}
	return occupant
}

// undoMove reverses applyMove(b, to) given b's original location and
// the displaced occupant it returned.
func (p *placer) undoMove(b netlist.BlockID, from, to Loc, occupant netlist.BlockID) {
	fi, ti := p.g.Index(from.X, from.Y), p.g.Index(to.X, to.Y)
	p.loc[b] = from
	p.occ[fi] = b
	if occupant != netlist.NoBlock {
		p.loc[occupant] = to
		p.occ[ti] = occupant
	} else {
		p.occ[ti] = netlist.NoBlock
	}
}

func (p *placer) anneal(opt Options) {
	n := len(p.d.Blocks)
	if n <= 1 || len(p.d.Nets) == 0 {
		return
	}
	innerNum := opt.InnerNum
	if innerNum <= 0 {
		innerNum = 10
	}
	movesPerT := int(innerNum * math.Pow(float64(n), 4.0/3.0))
	if movesPerT < 50 {
		movesPerT = 50
	}

	// Initial temperature: 20x the standard deviation of cost over n
	// random moves (VPR's recipe).
	t := p.initialTemperature(n)
	rlim := maxInt(p.g.Width, p.g.Height)
	exitT := 0.005 * p.cost / float64(len(p.d.Nets))
	if opt.FastExit {
		exitT *= 20
	}

	scratch := make([]netlist.NetID, 0, 64)
	oldBB := make([]bbox, 0, 64)
	for t > exitT {
		accepted := 0
		for m := 0; m < movesPerT; m++ {
			b := netlist.BlockID(p.rng.Intn(n))
			tgt, ok := p.proposeTarget(b, rlim)
			if !ok {
				continue
			}
			from := p.loc[b]
			occupant := p.applyMove(b, tgt)
			nets := p.affectedNets(b, occupant, scratch)
			oldBB = oldBB[:0]
			delta := 0.0
			for _, nid := range nets {
				oldBB = append(oldBB, p.bb[nid])
				nb := p.netBBox(nid)
				delta += p.netCost(nid, nb) - p.netCost(nid, p.bb[nid])
				p.bb[nid] = nb
			}
			if delta <= 0 || p.rng.Float64() < math.Exp(-delta/t) {
				p.cost += delta
				accepted++
			} else {
				p.undoMove(b, from, tgt, occupant)
				for i, nid := range nets {
					p.bb[nid] = oldBB[i]
				}
			}
		}
		rate := float64(accepted) / float64(movesPerT)
		switch {
		case rate > 0.96:
			t *= 0.5
		case rate > 0.8:
			t *= 0.9
		case rate > 0.15:
			t *= 0.95
		default:
			t *= 0.8
		}
		newRlim := int(float64(rlim) * (1.0 - 0.44 + rate))
		rlim = clampInt(newRlim, 1, maxInt(p.g.Width, p.g.Height))
	}
	// Guard against float drift over millions of incremental updates.
	p.recomputeAll()
}

func (p *placer) initialTemperature(nMoves int) float64 {
	if nMoves < 20 {
		nMoves = 20
	}
	var sum, sumSq float64
	count := 0
	for i := 0; i < nMoves; i++ {
		b := netlist.BlockID(p.rng.Intn(len(p.d.Blocks)))
		tgt, ok := p.proposeTarget(b, maxInt(p.g.Width, p.g.Height))
		if !ok {
			continue
		}
		occupant := p.applyMove(b, tgt)
		nets := p.affectedNets(b, occupant, nil)
		delta := 0.0
		for _, nid := range nets {
			nb := p.netBBox(nid)
			delta += p.netCost(nid, nb) - p.netCost(nid, p.bb[nid])
			p.bb[nid] = nb
		}
		p.cost += delta // keep state consistent; annealing continues from here
		sum += delta
		sumSq += delta * delta
		count++
	}
	if count == 0 {
		return 1
	}
	mean := sum / float64(count)
	variance := sumSq/float64(count) - mean*mean
	if variance < 1e-9 {
		return 1
	}
	return 20 * math.Sqrt(variance)
}

// Cost returns the placement's wirelength cost (bounding box with
// crossing-count compensation), the annealer's objective.
func Cost(d *netlist.Design, pl *Placement) float64 {
	total := 0.0
	for n := range d.Nets {
		net := &d.Nets[n]
		l := pl.Loc[net.Driver]
		bb := bbox{l.X, l.X, l.Y, l.Y}
		for _, s := range net.Sinks {
			sl := pl.Loc[s.Block]
			if sl.X < bb.xmin {
				bb.xmin = sl.X
			}
			if sl.X > bb.xmax {
				bb.xmax = sl.X
			}
			if sl.Y < bb.ymin {
				bb.ymin = sl.Y
			}
			if sl.Y > bb.ymax {
				bb.ymax = sl.Y
			}
		}
		total += crossingCount(len(net.Sinks)+1) * float64(bb.xmax-bb.xmin+bb.ymax-bb.ymin)
	}
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
