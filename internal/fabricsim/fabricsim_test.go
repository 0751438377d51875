package fabricsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/synth"
)

// compile runs the full flow on a circuit and returns everything
// needed to simulate both the netlist and the fabric.
type compiled struct {
	d   *netlist.Design
	pl  *place.Placement
	gr  *rrg.Graph
	res *route.Result
	raw *bitstream.Raw
}

func compileCircuit(t *testing.T, c *netlist.Circuit, w int, seed int64) *compiled {
	t.Helper()
	d, err := synth.Synthesize(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	size := 1
	for size*size < d.NumLogicBlocks() {
		size++
	}
	pads := d.CountKind(netlist.InputPad) + d.CountKind(netlist.OutputPad)
	for arch.GridForSize(size).NumPerimeter() < pads {
		size++
	}
	pl, err := place.Place(d, arch.GridForSize(size), place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := rrg.Build(arch.Params{W: w, K: 6}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := bitstream.Generate(d, pl, res)
	if err != nil {
		t.Fatal(err)
	}
	return &compiled{d: d, pl: pl, gr: gr, res: res, raw: raw}
}

// pads extracts the pad name->location bindings from the placement.
func (c *compiled) pads() (ins, outs []Pad) {
	for bi, b := range c.d.Blocks {
		loc := c.pl.Loc[bi]
		switch b.Kind {
		case netlist.InputPad:
			ins = append(ins, Pad{Name: b.Name, X: loc.X, Y: loc.Y})
		case netlist.OutputPad:
			outs = append(outs, Pad{Name: b.Name, X: loc.X, Y: loc.Y})
		}
	}
	return ins, outs
}

// assertFabricMatchesNetlist drives both simulators with the same
// random stimulus and compares outputs every cycle.
func assertFabricMatchesNetlist(t *testing.T, c *compiled, raw *bitstream.Raw, cycles int, seed int64) {
	t.Helper()
	ins, outs := c.pads()
	fsim, err := New(raw, ins, outs)
	if err != nil {
		t.Fatal(err)
	}
	nsim, err := netlist.NewDesignSimulator(c.d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for cycle := 0; cycle < cycles; cycle++ {
		stim := make(map[string]bool, len(ins))
		for _, p := range ins {
			stim[p.Name] = rng.Intn(2) == 0
		}
		want := nsim.Step(stim)
		got := fsim.Step(stim)
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("cycle %d: output %q = %v on fabric, netlist says %v", cycle, name, got[name], w)
			}
		}
	}
}

const majorityBLIF = `
.model maj
.inputs a b c
.outputs m n
.names a b c m
11- 1
1-1 1
-11 1
.names a b n
10 1
01 1
.end
`

func TestCombinationalFabricMatchesNetlist(t *testing.T) {
	circ, err := netlist.ParseBLIF(strings.NewReader(majorityBLIF))
	if err != nil {
		t.Fatal(err)
	}
	c := compileCircuit(t, circ, 8, 1)
	assertFabricMatchesNetlist(t, c, c.raw, 32, 1)
}

const lfsrBLIF = `
.model lfsr
.inputs en
.outputs q0 q1 q2 q3
.names en q0 q3 q2 d0
01-- 1
1-01 1
1-10 1
.latch d0 q0 re clk 0
.names en q1 q0 d1
01- 1
1-1 1
.latch d1 q1 re clk 0
.names en q2 q1 d2
01- 1
1-1 1
.latch d2 q2 re clk 0
.names en q3 q2 d3
01- 1
1-1 1
.latch d3 q3 re clk 0
.end
`

func TestSequentialFabricMatchesNetlist(t *testing.T) {
	circ, err := netlist.ParseBLIF(strings.NewReader(lfsrBLIF))
	if err != nil {
		t.Fatal(err)
	}
	c := compileCircuit(t, circ, 8, 2)
	assertFabricMatchesNetlist(t, c, c.raw, 64, 2)
}

// TestVBSDecodedFabricBehaves is the repository's deepest end-to-end
// test: compile, encode to a VBS, decode it back, and demand the
// decoded fabric *behaves* identically to the netlist — for several
// cluster sizes. Connectivity equivalence is checked by the encoder;
// this checks function.
func TestVBSDecodedFabricBehaves(t *testing.T) {
	circ, err := netlist.ParseBLIF(strings.NewReader(lfsrBLIF))
	if err != nil {
		t.Fatal(err)
	}
	c := compileCircuit(t, circ, 8, 3)
	for _, cluster := range []int{1, 2, 3} {
		v, _, err := core.Encode(c.d, c.pl, c.res, core.EncodeOptions{Cluster: cluster})
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		decoded, err := v.Decode(1)
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		assertFabricMatchesNetlist(t, c, decoded, 48, int64(10+cluster))
	}
}

// TestRandomCircuitsBehave fuzzes the whole stack with random
// sequential circuits.
func TestRandomCircuitsBehave(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		circ := netlist.NewCircuit("fuzz")
		names := []string{}
		for i := 0; i < 3; i++ {
			n := fmt.Sprintf("pi%d", i)
			circ.AddInput(n)
			names = append(names, n)
		}
		for i := 0; i < 10; i++ {
			nin := rng.Intn(3) + 1
			ins := make([]string, nin)
			for j := range ins {
				ins[j] = names[rng.Intn(len(names))]
			}
			truth := bits.NewVec(1 << uint(nin))
			for b := 0; b < truth.Len(); b++ {
				truth.Set(b, rng.Intn(2) == 0)
			}
			out := fmt.Sprintf("n%d", i)
			if _, err := circ.AddLUT(out, ins, truth); err != nil {
				t.Fatal(err)
			}
			names = append(names, out)
			if rng.Intn(3) == 0 {
				q := fmt.Sprintf("q%d", i)
				circ.AddLatch(out, q)
				names = append(names, q)
			}
		}
		circ.AddOutput(names[len(names)-1])
		circ.AddOutput(names[len(names)-2])
		c := compileCircuit(t, circ, 10, seed)
		assertFabricMatchesNetlist(t, c, c.raw, 24, seed)

		// And through the VBS.
		v, _, err := core.Encode(c.d, c.pl, c.res, core.EncodeOptions{Cluster: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decoded, err := v.Decode(1)
		if err != nil {
			t.Fatal(err)
		}
		assertFabricMatchesNetlist(t, c, decoded, 24, seed+100)
	}
}

func TestPadOffFabricRejected(t *testing.T) {
	circ, err := netlist.ParseBLIF(strings.NewReader(majorityBLIF))
	if err != nil {
		t.Fatal(err)
	}
	c := compileCircuit(t, circ, 8, 4)
	_, err = New(c.raw, []Pad{{Name: "x", X: 99, Y: 0}}, nil)
	if err == nil {
		t.Error("off-fabric pad accepted")
	}
}

func TestNumLUTs(t *testing.T) {
	circ, err := netlist.ParseBLIF(strings.NewReader(majorityBLIF))
	if err != nil {
		t.Fatal(err)
	}
	c := compileCircuit(t, circ, 8, 5)
	ins, outs := c.pads()
	s, err := New(c.raw, ins, outs)
	if err != nil {
		t.Fatal(err)
	}
	// The majority circuit packs to 2 logic blocks; random truth
	// tables make all-zero LUTs unlikely but possible, so allow <=.
	if s.NumLUTs() > 2 || s.NumLUTs() == 0 {
		t.Errorf("NumLUTs = %d, want 1..2", s.NumLUTs())
	}
}
