package repro

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

// counterBLIF is a small sequential circuit exercising the whole front
// end: LUT covers, latches, multi-bit state.
const counterBLIF = `
.model ctr
.inputs en
.outputs q0 q1 q2
.names en q0 d0
01 1
10 1
.latch d0 q0 re clk 0
.names en q0 q1 d1
0-1 1
101 1
110 1
.latch d1 q1 re clk 0
.names en q0 q1 q2 c2
1110 1
1111 1
.names q2 c2 d2
01 1
10 1
.latch d2 q2 re clk 0
.end
`

func quickFlow() *Flow {
	f := NewFlow()
	f.W = 8
	f.PlaceEffort = 1
	return f
}

func TestCompileBLIFEndToEnd(t *testing.T) {
	c, err := quickFlow().CompileBLIF(strings.NewReader(counterBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if c.VBS.Size() <= 0 || c.Raw.SizeBits() <= 0 {
		t.Error("sizes not computed")
	}
	if c.VBS.CompressionRatio() >= 1 {
		t.Errorf("ratio %.2f, expected compression", c.VBS.CompressionRatio())
	}
	if c.ChannelWidth != 8 {
		t.Errorf("channel width %d", c.ChannelWidth)
	}
}

func TestCompileAutoWidth(t *testing.T) {
	f := quickFlow()
	f.AutoWidth = true
	c, err := f.CompileBLIF(strings.NewReader(counterBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if c.ChannelWidth < 1 || c.ChannelWidth > 16 {
		t.Errorf("auto width %d implausible", c.ChannelWidth)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileRejectsKMismatch(t *testing.T) {
	d := &netlist.Design{Name: "x", K: 4}
	if _, err := quickFlow().Compile(d); err == nil {
		t.Error("K mismatch accepted")
	}
}

func TestCompiledFunctionalSimulation(t *testing.T) {
	// The packed design must still behave as a 3-bit counter.
	c, err := quickFlow().CompileBLIF(strings.NewReader(counterBLIF))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewDesignSimulator(c.Design)
	if err != nil {
		t.Fatal(err)
	}
	// Outputs are sampled before the clock edge, so cycle 0 shows the
	// initial state.
	for cycle := 0; cycle < 10; cycle++ {
		out := sim.Step(map[string]bool{"en": true})
		want := cycle % 8
		got := 0
		if out["q0"] {
			got |= 1
		}
		if out["q1"] {
			got |= 2
		}
		if out["q2"] {
			got |= 4
		}
		if got != want {
			t.Fatalf("cycle %d: count %d, want %d", cycle, got, want)
		}
	}
}

func TestControllerIntegration(t *testing.T) {
	c, err := quickFlow().CompileBLIF(strings.NewReader(counterBLIF))
	if err != nil {
		t.Fatal(err)
	}
	fab, err := c.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(fab, 2)
	task, err := ctrl.Load(c.VBS) // an empty fabric: first fit is the origin
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Relocate(task.ID, c.Grid.Width, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Unload(task.ID); err != nil {
		t.Fatal(err)
	}
	if fab.FreeMacros() != fab.Grid().NumMacros() {
		t.Error("fabric not clean after unload")
	}
}

func TestGridSizing(t *testing.T) {
	// Pad-heavy design: grid must grow to fit the ring.
	d := &netlist.Design{Name: "pads", K: 6}
	var last netlist.NetID
	for i := 0; i < 40; i++ {
		_, last = d.AddInputPad("pi")
	}
	d.AddOutputPad("po", last)
	f := quickFlow()
	c, err := f.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Grid.NumPerimeter() < 41 {
		t.Errorf("perimeter %d cannot hold 41 pads", c.Grid.NumPerimeter())
	}
}
