package devirt

import (
	"slices"
	"testing"

	"repro/internal/arch"
)

// rowHas reports whether conductor k is in conductor c's word row.
func rowHas(g *regionGraph, c, k int32) bool {
	for _, p := range g.row(c) {
		if p.w == k>>6 {
			return p.mask>>uint(k&63)&1 != 0
		}
	}
	return false
}

// TestGraphBuildInvariants asserts what the word-mask search takes for
// granted about every graph the differential tests route: word rows are
// exactly the CSR edge targets (ascending words, no empty pair, no bit
// past the last conductor), adjacency is symmetric — which is what lets
// the target test read the target's row instead of the popped
// conductor's edges — and the blank avail bitset is the blank step
// table. Parallel switches between one conductor pair are legal; they
// are counted and logged, and TestCommitDrivesFirstParallelSwitch pins
// which one the router drives.
func TestGraphBuildInvariants(t *testing.T) {
	for _, r := range exactShapes {
		g := graphFor(r)
		n := int32(r.NumConds())
		parallel := 0
		for c := int32(0); c < n; c++ {
			var tos []int32
			for _, e := range g.edges[g.adjOff[c]:g.adjOff[c+1]] {
				if slices.Contains(tos, e.to) {
					parallel++
				} else {
					tos = append(tos, e.to)
				}
				if g.firstEdge(e.to, c) == nil {
					t.Fatalf("%+v: edge %d->%d has no reverse edge", r, c, e.to)
				}
			}
			slices.Sort(tos)
			var fromRows []int32
			lastW := int32(-1)
			for _, p := range g.row(c) {
				if p.mask == 0 || p.w <= lastW {
					t.Fatalf("%+v cond %d: row pair (%d,%#x) empty or out of order", r, c, p.w, p.mask)
				}
				lastW = p.w
				for b := int32(0); b < 64; b++ {
					if p.mask>>uint(b)&1 != 0 {
						fromRows = append(fromRows, p.w<<6+b)
					}
				}
			}
			if !slices.Equal(fromRows, tos) {
				t.Fatalf("%+v cond %d: word rows name %v, CSR edges %v", r, c, fromRows, tos)
			}
			for _, k := range fromRows {
				if k >= n || !rowHas(g, k, c) {
					t.Fatalf("%+v: %d in row(%d) but not the reverse (or out of range)", r, k, c)
				}
			}
			if avail := g.avail.has(c); avail != (g.step[c] != 0) {
				t.Fatalf("%+v cond %d: blank avail %v, blank step %d", r, c, avail, g.step[c])
			}
		}
		t.Logf("%+v: %d conductors in %d words, %.1f edges and %.1f row pairs per conductor, %d parallel switch edges",
			r, n, len(g.avail), float64(len(g.edges))/float64(n), float64(len(g.rows))/float64(n), parallel)
	}
}

// TestCommitDrivesFirstParallelSwitch hand-builds the case the real
// shapes may or may not contain: two switches joining one conductor
// pair. The search only learns "a discovered b"; commit must drive the
// switch that comes first in a's adjacency — the edge the per-edge
// search used to record — whichever of the two that is, and the heap
// reference must agree.
func TestCommitDrivesFirstParallelSwitch(t *testing.T) {
	r := Region{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1}
	in, out := r.CodeWest(0, 1), r.CodeEast(0, 1)
	base := graphFor(r)
	a, b := base.condFor(in), base.condFor(out)
	real := *base.firstEdge(a, b) // the straight-through switch
	// The twin drives a bit range no switch on this pair uses.
	twin := edge{first: real.first + int32(real.nbits), member: real.member, nbits: 1}

	for _, twinFirst := range []bool{false, true} {
		g := *base
		g.edges, g.adjOff = nil, make([]int32, len(base.adjOff))
		for c := int32(0); c < int32(r.NumConds()); c++ {
			for _, e := range base.edges[base.adjOff[c]:base.adjOff[c+1]] {
				dup := twin
				switch {
				case c == a && e.to == b:
					dup.to = b
				case c == b && e.to == a:
					dup.to = a
				default:
					g.edges = append(g.edges, e)
					continue
				}
				if twinFirst {
					g.edges = append(g.edges, dup, e)
				} else {
					g.edges = append(g.edges, e, dup)
				}
			}
			g.adjOff[c+1] = int32(len(g.edges))
		}
		g.rows = nil
		g.buildRows()
		if !slices.Equal(g.rows, base.rows) {
			t.Fatal("a parallel switch must not change the word rows")
		}

		want := real
		if twinFirst {
			want = twin
		}
		rt := newRouter(&g, false, false)
		if err := rt.RouteConnection(in, out); err != nil {
			t.Fatal(err)
		}
		ref := newRefRouter(t, r, false, false)
		ref.g = &g
		if err := ref.routeConnection(in, out); err != nil {
			t.Fatal(err)
		}
		vec := rt.configs[0].Vec()
		if !vec.Equal(ref.configs[0].Vec()) {
			t.Fatalf("twinFirst=%v: router and reference drive different switches", twinFirst)
		}
		if vec.OnesCount() != int(want.nbits) || !vec.Get(int(want.first)) {
			t.Fatalf("twinFirst=%v: config %v, want exactly the %d bit(s) at %d", twinFirst, vec, want.nbits, want.first)
		}
	}
}
