package rrg

import (
	"testing"

	"repro/internal/arch"
)

func small(t *testing.T) *Graph {
	t.Helper()
	gr, err := Build(arch.PaperExample(), arch.Grid{Width: 4, Height: 3})
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(arch.Params{}, arch.Grid{Width: 2, Height: 2}); err == nil {
		t.Error("bad params should fail")
	}
	if _, err := Build(arch.PaperExample(), arch.Grid{}); err == nil {
		t.Error("bad grid should fail")
	}
}

func TestNodeCount(t *testing.T) {
	gr := small(t)
	want := 4 * 3 * (2*5 + 7)
	if gr.NumNodes() != want {
		t.Errorf("NumNodes = %d, want %d", gr.NumNodes(), want)
	}
}

func TestNodeInfoRoundTrip(t *testing.T) {
	gr := small(t)
	for x := 0; x < 4; x++ {
		for y := 0; y < 3; y++ {
			for tr := 0; tr < 5; tr++ {
				n := gr.NodeHW(x, y, tr)
				nx, ny, k, i := gr.NodeInfo(n)
				if nx != x || ny != y || k != NodeHWire || i != tr {
					t.Fatalf("HW(%d,%d,%d) -> (%d,%d,%v,%d)", x, y, tr, nx, ny, k, i)
				}
				n = gr.NodeVW(x, y, tr)
				if nx, ny, k, i = gr.NodeInfo(n); nx != x || ny != y || k != NodeVWire || i != tr {
					t.Fatalf("VW round trip failed")
				}
			}
			for p := 0; p < 7; p++ {
				n := gr.NodePin(x, y, p)
				nx, ny, k, i := gr.NodeInfo(n)
				if nx != x || ny != y || k != NodePinWire || i != p {
					t.Fatalf("Pin round trip failed")
				}
			}
		}
	}
}

// TestEdgeCount checks the exact edge count: each macro contributes its
// switch list minus switches referencing off-fabric neighbour wires.
func TestEdgeCount(t *testing.T) {
	p := arch.PaperExample()
	g := arch.Grid{Width: 4, Height: 3}
	gr, err := Build(p, g)
	if err != nil {
		t.Fatal(err)
	}
	// Full macro: 6W sb pairs + L*W junctions.
	full := 6*p.W + p.L()*p.W
	// A west-edge macro loses the 3 pairs touching InW per track; a
	// south-edge macro loses the 3 pairs touching InS; the corner loses
	// 5 of 6 pairs (only HW-VW remains).
	want := 0
	for x := 0; x < g.Width; x++ {
		for y := 0; y < g.Height; y++ {
			e := full
			switch {
			case x == 0 && y == 0:
				e -= 5 * p.W
			case x == 0 || y == 0:
				e -= 3 * p.W
			}
			want += e
		}
	}
	if got := len(gr.edges) / 2; got != want {
		t.Errorf("undirected edges = %d, want %d", got, want)
	}
}

// TestWireSharing verifies that the InW conductor of macro (x, y) is
// the HW node of macro (x-1, y): a switch-box edge from (x,y) must
// connect the neighbour's wire.
func TestWireSharing(t *testing.T) {
	gr := small(t)
	p := gr.P
	// In macro (1,1), the SB pair (InW(2), VW(2)) connects node
	// HW(0,1,2) with node VW(1,1,2), owned by macro (1,1).
	a := gr.NodeHW(0, 1, 2)
	b := gr.NodeVW(1, 1, 2)
	macroIdx := int32(gr.G.Index(1, 1))
	found := false
	for _, e := range gr.Adj(a) {
		if e.To == b && e.Macro == macroIdx {
			sw := p.Switches()[e.Switch]
			// The switch's local conductors must be InW(2) and VW(2).
			k1, i1 := p.CondInfo(sw.A)
			k2, i2 := p.CondInfo(sw.B)
			if (k1 == arch.KindInW && i1 == 2 && k2 == arch.KindVW && i2 == 2) ||
				(k2 == arch.KindInW && i2 == 2 && k1 == arch.KindVW && i1 == 2) {
				found = true
			}
		}
	}
	if !found {
		t.Error("expected SB edge between neighbour HW and own VW not found")
	}
}

// TestAdjacencySymmetric checks both directed halves exist with the
// same switch annotation.
func TestAdjacencySymmetric(t *testing.T) {
	gr := small(t)
	for n := 0; n < gr.NumNodes(); n++ {
		for _, e := range gr.Adj(NodeID(n)) {
			back := false
			for _, r := range gr.Adj(e.To) {
				if r.To == NodeID(n) && r.Macro == e.Macro && r.Switch == e.Switch {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("edge %s -> %s has no reverse", gr.NodeName(NodeID(n)), gr.NodeName(e.To))
			}
		}
	}
}

// TestPinReachability: from any pin wire one can reach a neighbouring
// macro's pin wire through the graph (basic connectivity sanity).
func TestPinReachability(t *testing.T) {
	gr := small(t)
	src := gr.NodePin(1, 1, 0)
	dst := gr.NodePin(2, 1, 1)
	visited := make([]bool, gr.NumNodes())
	queue := []NodeID{src}
	visited[src] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			return
		}
		for _, e := range gr.Adj(n) {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	t.Error("pin (1,1)#0 cannot reach pin (2,1)#1")
}

// TestLocalCond pins the local-conductor view of global nodes: a
// horizontal wire of macro (x-1, y) is InW inside (x, y), a vertical
// wire of (x, y-1) is InS, and pin wires are local to their macro.
func TestLocalCond(t *testing.T) {
	gr := small(t)
	p := gr.P
	n := gr.NodeHW(1, 1, 3)
	if got := gr.GlobalNode(1, 1, p.CondHW(3)); got != n {
		t.Errorf("own macro HW(3): got %s", gr.NodeName(got))
	}
	if got := gr.GlobalNode(2, 1, p.CondInW(3)); got != n {
		t.Errorf("east neighbour InW(3): got %s", gr.NodeName(got))
	}
	if got := gr.GlobalNode(1, 2, p.CondInS(2)); got != gr.NodeVW(1, 1, 2) {
		t.Errorf("north neighbour InS(2): got %s", gr.NodeName(got))
	}
	if got := gr.GlobalNode(2, 2, p.CondPin(4)); got != gr.NodePin(2, 2, 4) {
		t.Errorf("pin: got %s", gr.NodeName(got))
	}
}

// TestMacrosTouching: a channel wire extends into its own macro and the
// east (horizontal) or north (vertical) one, and no further; wires off
// the west or south fabric edge do not exist.
func TestMacrosTouching(t *testing.T) {
	gr := small(t)
	p := gr.P
	if gr.GlobalNode(2, 1, p.CondInW(0)) != gr.NodeHW(1, 1, 0) {
		t.Error("interior HW does not reach its east neighbour")
	}
	if gr.GlobalNode(1, 2, p.CondInS(2)) != gr.NodeVW(1, 1, 2) {
		t.Error("interior VW does not reach its north neighbour")
	}
	if gr.GlobalNode(0, 1, p.CondInW(0)) != NoNode || gr.GlobalNode(1, 0, p.CondInS(0)) != NoNode {
		t.Error("a wire reaches in from beyond the west or south edge")
	}
	// Only the (x+1, y) neighbour sees HW(x, y) as an incoming wire.
	hw := gr.NodeHW(1, 1, 0)
	for x := 0; x < gr.G.Width; x++ {
		for y := 0; y < gr.G.Height; y++ {
			if gr.GlobalNode(x, y, p.CondInW(0)) == hw && (x != 2 || y != 1) {
				t.Errorf("HW(1,1)#0 appears as InW inside (%d,%d)", x, y)
			}
		}
	}
}

func TestNodeNameAndKindString(t *testing.T) {
	gr := small(t)
	if got := gr.NodeName(gr.NodeHW(1, 2, 3)); got != "hw(1,2)#3" {
		t.Errorf("NodeName = %q", got)
	}
	if gr.NodeName(NoNode) != "none" {
		t.Error("NodeName(NoNode)")
	}
	if NodeHWire.String() != "hw" || NodeVWire.String() != "vw" || NodePinWire.String() != "pin" {
		t.Error("NodeKind strings")
	}
}

func BenchmarkBuildMedium(b *testing.B) {
	p := arch.Default()
	g := arch.GridForSize(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gr, err := Build(p, g)
		if err != nil {
			b.Fatal(err)
		}
		_ = gr
	}
}
