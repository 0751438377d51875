package arch

import (
	"fmt"
	"sync"

	"repro/internal/bits"
)

// Switch describes one logical programmable switch of a macro: an
// electrical connection between two conductors, backed by one or more
// raw configuration bits.
//
// Switch-box pairwise switches occupy a single bit each (the six pairs
// of a switch point are individually programmable, e.g. a horizontal
// route on (InW,HW) and a vertical route on (InS,VW) may share a track).
// Pin junctions bundle the 6 (cross-shaped) or 3 (T-shaped) transistor
// bits of Eq. (1) into one logical on/off switch: when on, all bits of
// the junction are set; a junction reads as on when any bit is set.
type Switch struct {
	// A and B are the conductors joined when the switch is on; A < B.
	A, B Cond
	// FirstBit is the offset of the switch's first bit in the macro's
	// canonical raw layout.
	FirstBit int
	// NumBits is 1 for switch-box pairs, 6 for cross junctions and 3
	// for T junctions.
	NumBits int
	// Kind classifies the switch for diagnostics and statistics.
	Kind SwitchKind
}

// SwitchKind classifies programmable switches.
type SwitchKind int

// Switch kinds.
const (
	SwitchBoxPair SwitchKind = iota
	CrossJunction
	TeeJunction
)

func (k SwitchKind) String() string {
	switch k {
	case SwitchBoxPair:
		return "sb"
	case CrossJunction:
		return "cross"
	case TeeJunction:
		return "tee"
	default:
		return fmt.Sprintf("SwitchKind(%d)", int(k))
	}
}

// Neighbor is one adjacency entry of the macro conductor graph.
type Neighbor struct {
	// Switch indexes into Switches().
	Switch int
	// Cond is the conductor on the far side of the switch.
	Cond Cond
}

// graph caches what is derived from a Params value: the switch list,
// the adjacency, and the word masks that answer "is this conductor
// used" with an AND over the configuration instead of a switch walk.
type graph struct {
	p        Params
	switches []Switch
	adj      [][]Neighbor // indexed by Cond
	// condMask[c] has every raw bit of every switch touching conductor c.
	condMask []*bits.Vec
	// kindMask[k] is the union of condMask over the conductors of kind k
	// (for the four wire kinds: one side of the macro).
	kindMask [KindPin + 1]*bits.Vec
}

var graphCache sync.Map // Params -> *graph

func (p Params) graph() *graph {
	if g, ok := graphCache.Load(p); ok {
		return g.(*graph)
	}
	g := p.buildGraph()
	actual, _ := graphCache.LoadOrStore(p, g)
	return actual.(*graph)
}

func (p Params) buildGraph() *graph {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &graph{p: p, adj: make([][]Neighbor, p.NumConds()), condMask: make([]*bits.Vec, p.NumConds())}
	for c := range g.condMask {
		g.condMask[c] = bits.NewVec(p.NRaw())
	}
	bit := p.NLB()

	addSwitch := func(a, b Cond, nbits int, kind SwitchKind) {
		if a > b {
			a, b = b, a
		}
		idx := len(g.switches)
		g.switches = append(g.switches, Switch{A: a, B: b, FirstBit: bit, NumBits: nbits, Kind: kind})
		g.adj[a] = append(g.adj[a], Neighbor{Switch: idx, Cond: b})
		g.adj[b] = append(g.adj[b], Neighbor{Switch: idx, Cond: a})
		for i := 0; i < nbits; i++ {
			g.condMask[a].Set(bit+i, true)
			g.condMask[b].Set(bit+i, true)
		}
		bit += nbits
	}

	// Switch box: per track, six pairwise single-bit switches among the
	// four incident wires, in canonical pair order.
	for t := 0; t < p.W; t++ {
		ends := [4]Cond{p.CondInW(t), p.CondInS(t), p.CondHW(t), p.CondVW(t)}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				addSwitch(ends[i], ends[j], 1, SwitchBoxPair)
			}
		}
	}

	// Connection boxes: each pin wire crosses every track of its
	// channel; the last crossing is T-shaped (the pin wire ends there).
	for pin := 0; pin < p.L(); pin++ {
		pw := p.CondPin(pin)
		for t := 0; t < p.W; t++ {
			var wire Cond
			if p.PinChannelIsX(pin) {
				wire = p.CondHW(t)
			} else {
				wire = p.CondVW(t)
			}
			if t < p.W-1 {
				addSwitch(pw, wire, 6, CrossJunction)
			} else {
				addSwitch(pw, wire, 3, TeeJunction)
			}
		}
	}

	if bit != p.NRaw() {
		panic(fmt.Sprintf("arch: switch layout ends at bit %d, want NRaw=%d", bit, p.NRaw()))
	}
	for k := range g.kindMask {
		g.kindMask[k] = bits.NewVec(p.NRaw())
	}
	for c, m := range g.condMask {
		k, _ := p.CondInfo(Cond(c))
		g.kindMask[k].Or(m)
	}
	return g
}

// Switches returns the canonical, cached switch enumeration of a macro.
// The returned slice must not be modified.
func (p Params) Switches() []Switch { return p.graph().switches }

// Adjacency returns the conductors reachable from c through a single
// switch. The returned slice must not be modified.
func (p Params) Adjacency(c Cond) []Neighbor {
	if c < 0 || int(c) >= p.NumConds() {
		panic(fmt.Sprintf("arch: conductor %d out of range", c))
	}
	return p.graph().adj[c]
}

// MacroConfig is the raw configuration of one macro: NRaw bits in the
// canonical layout (logic data first, then switch bits).
//
// A MacroConfig resolves its architecture's derived tables once, at
// construction, so no query on it goes back through the per-Params cache.
type MacroConfig struct {
	g   *graph
	vec *bits.Vec
}

// NewMacroConfig returns an all-zero (fully disconnected, LUT=0)
// configuration for the given architecture.
func NewMacroConfig(p Params) *MacroConfig {
	return &MacroConfig{g: p.graph(), vec: bits.NewVec(p.NRaw())}
}

// MakeMacroConfigs returns n all-zero configurations carved out of
// three allocations — the MacroConfig values, their Vecs and one
// shared word array — for callers that build a whole grid or task at
// once. Each element is an ordinary MacroConfig; take its address.
func MakeMacroConfigs(p Params, n int) []MacroConfig {
	g := p.graph()
	vecs := bits.MakeVecs(n, p.NRaw())
	out := make([]MacroConfig, n)
	for i := range out {
		out[i] = MacroConfig{g: g, vec: &vecs[i]}
	}
	return out
}

// MacroConfigFromVec wraps an existing NRaw-bit vector. The vector is
// used directly, not copied.
func MacroConfigFromVec(p Params, v *bits.Vec) (*MacroConfig, error) {
	if v.Len() != p.NRaw() {
		return nil, fmt.Errorf("arch: config has %d bits, want NRaw=%d", v.Len(), p.NRaw())
	}
	return &MacroConfig{g: p.graph(), vec: v}, nil
}

// Vec exposes the underlying bit vector (canonical layout).
func (m *MacroConfig) Vec() *bits.Vec { return m.vec }

// Clone returns an independent copy.
func (m *MacroConfig) Clone() *MacroConfig {
	return &MacroConfig{g: m.g, vec: m.vec.Clone()}
}

// SetLogic stores the NLB logic bits (LUT truth table then FF enable).
func (m *MacroConfig) SetLogic(logic *bits.Vec) {
	if logic.Len() != m.g.p.NLB() {
		panic(fmt.Sprintf("arch: logic data has %d bits, want NLB=%d", logic.Len(), m.g.p.NLB()))
	}
	for i := 0; i < logic.Len(); i++ {
		m.vec.Set(i, logic.Get(i))
	}
}

// Logic extracts the NLB logic bits as a fresh vector.
func (m *MacroConfig) Logic() *bits.Vec {
	out := bits.NewVec(m.g.p.NLB())
	for i := 0; i < out.Len(); i++ {
		out.Set(i, m.vec.Get(i))
	}
	return out
}

// SetSwitch turns logical switch idx on or off, driving every raw bit
// of the switch.
func (m *MacroConfig) SetSwitch(idx int, on bool) {
	sw := m.g.switches[idx]
	for b := 0; b < sw.NumBits; b++ {
		m.vec.Set(sw.FirstBit+b, on)
	}
}

// SwitchOn reports whether logical switch idx is on (any of its bits
// set).
func (m *MacroConfig) SwitchOn(idx int) bool {
	sw := m.g.switches[idx]
	for b := 0; b < sw.NumBits; b++ {
		if m.vec.Get(sw.FirstBit + b) {
			return true
		}
	}
	return false
}

// CondUsed reports whether any switch touching conductor c is on — the
// question seam analysis asks of every boundary wire. It is one masked
// AND over the configuration words, equivalent to walking Adjacency(c)
// with SwitchOn.
func (m *MacroConfig) CondUsed(c Cond) bool {
	return m.vec.Intersects(m.g.condMask[c])
}

// KindUsed reports whether CondUsed holds for any conductor of kind k;
// for a wire kind, whether the macro touches that side's channel at all.
func (m *MacroConfig) KindUsed(k CondKind) bool {
	return m.vec.Intersects(m.g.kindMask[k])
}

// RoutingBits copies the routing portion of the configuration (bits
// NLB..NRaw) into a fresh vector of NRaw-NLB bits. This is the payload
// stored verbatim by the VBS raw-fallback coding.
func (m *MacroConfig) RoutingBits() *bits.Vec {
	n := m.g.p.NRaw() - m.g.p.NLB()
	out := bits.NewVec(n)
	for i := 0; i < n; i++ {
		out.Set(i, m.vec.Get(m.g.p.NLB()+i))
	}
	return out
}
