// Package rrg builds the global routing-resource graph of a fabric:
// one node per physical conductor (horizontal wire, vertical wire or
// logic-block pin wire), one undirected edge per programmable switch.
// Every edge records which macro owns the switch and its index in that
// macro's canonical switch enumeration, so a routed tree maps directly
// onto raw configuration bits.
//
// Conductors are shared between adjacent macros: the InW(t) conductor
// of macro (x,y) is the HW(t) conductor of macro (x-1,y), so globally
// each macro contributes only its own HW, VW and pin wires. Macros on
// the west or south fabric edge have switch-box switches referring to
// nonexistent neighbour wires; those switches have no edge and their
// configuration bits stay zero (dead bits), keeping Nraw uniform across
// the grid as in the paper.
package rrg

import (
	"fmt"

	"repro/internal/arch"
)

// NodeID identifies a conductor in the graph.
type NodeID int32

// NoNode marks an absent node.
const NoNode NodeID = -1

// Edge is one directed half of a programmable switch.
type Edge struct {
	// To is the conductor on the far side.
	To NodeID
	// Macro is the grid index (arch.Grid.Index) of the macro owning the
	// switch.
	Macro int32
	// Switch indexes arch.Params.Switches() of the owning macro.
	Switch int32
}

// Graph is the routing-resource graph of a W-track fabric.
type Graph struct {
	P arch.Params
	G arch.Grid

	perMacro int // nodes contributed per macro: 2W + L
	offsets  []int32
	edges    []Edge
}

// Build constructs the graph for the given architecture and grid.
func Build(p arch.Params, g arch.Grid) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	gr := &Graph{P: p, G: g, perMacro: 2*p.W + p.L()}
	n := gr.NumNodes()

	// Two passes: count degrees, then fill CSR.
	deg := make([]int32, n)
	sws := p.Switches()
	forEachEdge := func(emit func(a, b NodeID, macro, sw int32)) {
		for y := 0; y < g.Height; y++ {
			for x := 0; x < g.Width; x++ {
				m := int32(g.Index(x, y))
				for si, sw := range sws {
					a := gr.GlobalNode(x, y, sw.A)
					b := gr.GlobalNode(x, y, sw.B)
					if a == NoNode || b == NoNode {
						continue
					}
					emit(a, b, m, int32(si))
				}
			}
		}
	}
	forEachEdge(func(a, b NodeID, _, _ int32) {
		deg[a]++
		deg[b]++
	})
	gr.offsets = make([]int32, n+1)
	for i := 0; i < n; i++ {
		gr.offsets[i+1] = gr.offsets[i] + deg[i]
	}
	gr.edges = make([]Edge, gr.offsets[n])
	fill := make([]int32, n)
	forEachEdge(func(a, b NodeID, macro, sw int32) {
		gr.edges[gr.offsets[a]+fill[a]] = Edge{To: b, Macro: macro, Switch: sw}
		fill[a]++
		gr.edges[gr.offsets[b]+fill[b]] = Edge{To: a, Macro: macro, Switch: sw}
		fill[b]++
	})
	return gr, nil
}

// NumNodes returns the node count: grid macros × (2W + L).
func (gr *Graph) NumNodes() int { return gr.G.NumMacros() * gr.perMacro }

// NodeHW returns the node of horizontal wire t of macro (x, y).
func (gr *Graph) NodeHW(x, y, t int) NodeID {
	return NodeID(gr.G.Index(x, y)*gr.perMacro + t)
}

// NodeVW returns the node of vertical wire t of macro (x, y).
func (gr *Graph) NodeVW(x, y, t int) NodeID {
	return NodeID(gr.G.Index(x, y)*gr.perMacro + gr.P.W + t)
}

// NodePin returns the node of pin wire p of macro (x, y).
func (gr *Graph) NodePin(x, y, pin int) NodeID {
	return NodeID(gr.G.Index(x, y)*gr.perMacro + 2*gr.P.W + pin)
}

// Adj returns the adjacency list of node n. The slice aliases internal
// storage and must not be modified.
func (gr *Graph) Adj(n NodeID) []Edge {
	return gr.edges[gr.offsets[n]:gr.offsets[n+1]]
}

// NodeKind classifies a global node.
type NodeKind int

// Global node kinds.
const (
	NodeHWire NodeKind = iota
	NodeVWire
	NodePinWire
)

func (k NodeKind) String() string {
	switch k {
	case NodeHWire:
		return "hw"
	case NodeVWire:
		return "vw"
	case NodePinWire:
		return "pin"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// NodeInfo decomposes a node into its owning macro coordinates, kind
// and index (track or pin number).
func (gr *Graph) NodeInfo(n NodeID) (x, y int, kind NodeKind, idx int) {
	m := int(n) / gr.perMacro
	local := int(n) % gr.perMacro
	x, y = gr.G.Coords(m)
	switch {
	case local < gr.P.W:
		return x, y, NodeHWire, local
	case local < 2*gr.P.W:
		return x, y, NodeVWire, local - gr.P.W
	default:
		return x, y, NodePinWire, local - 2*gr.P.W
	}
}

// NodeName renders a node for diagnostics, e.g. "hw(3,4)#2".
func (gr *Graph) NodeName(n NodeID) string {
	if n == NoNode {
		return "none"
	}
	x, y, k, i := gr.NodeInfo(n)
	return fmt.Sprintf("%s(%d,%d)#%d", k, x, y, i)
}

// GlobalNode resolves a local conductor of macro (x, y) to its global
// node: InW and InS map onto the west/south neighbour's wires. It
// returns NoNode for neighbour wires that fall off the fabric edge.
func (gr *Graph) GlobalNode(x, y int, c arch.Cond) NodeID {
	kind, idx := gr.P.CondInfo(c)
	switch kind {
	case arch.KindHW:
		return gr.NodeHW(x, y, idx)
	case arch.KindVW:
		return gr.NodeVW(x, y, idx)
	case arch.KindInW:
		if x == 0 {
			return NoNode
		}
		return gr.NodeHW(x-1, y, idx)
	case arch.KindInS:
		if y == 0 {
			return NoNode
		}
		return gr.NodeVW(x, y-1, idx)
	default:
		return gr.NodePin(x, y, idx)
	}
}
