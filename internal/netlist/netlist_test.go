package netlist

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

func truthConst(n int, on bool) *bits.Vec {
	v := bits.NewVec(1 << uint(n))
	if on {
		for i := 0; i < v.Len(); i++ {
			v.Set(i, true)
		}
	}
	return v
}

func truthAND(n int) *bits.Vec {
	v := bits.NewVec(1 << uint(n))
	v.Set(v.Len()-1, true)
	return v
}

func buildSmallCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit("small")
	c.AddInput("a")
	c.AddInput("b")
	if _, err := c.AddLUT("x", []string{"a", "b"}, truthAND(2)); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("x", "q")
	c.AddOutput("q")
	return c
}

func TestCircuitBuildAndValidate(t *testing.T) {
	c := buildSmallCircuit(t)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := countKind(c, CellInput); got != 2 {
		t.Errorf("inputs = %d, want 2", got)
	}
	if got := countKind(c, CellLUT); got != 1 {
		t.Errorf("LUTs = %d, want 1", got)
	}
	if got := countKind(c, CellLatch); got != 1 {
		t.Errorf("latches = %d, want 1", got)
	}
	if got := countKind(c, CellOutput); got != 1 {
		t.Errorf("outputs = %d, want 1", got)
	}
	// Net "x" must be driven by the LUT and sunk by the latch.
	x := findNet(c, "x")
	if x == NoNet {
		t.Fatal("net x missing")
	}
	if c.Cells[c.Nets[x].Driver].Kind != CellLUT {
		t.Error("net x driver is not the LUT")
	}
	if len(c.Nets[x].Sinks) != 1 || c.Cells[c.Nets[x].Sinks[0].Cell].Kind != CellLatch {
		t.Error("net x sink is not the latch")
	}
}

func TestValidateDetectsUndrivenNet(t *testing.T) {
	c := NewCircuit("bad")
	c.AddOutput("floating")
	if err := c.Validate(); err == nil {
		t.Error("undriven net should fail validation")
	}
}

func TestAddLUTBadTruth(t *testing.T) {
	c := NewCircuit("bad")
	c.AddInput("a")
	if _, err := c.AddLUT("x", []string{"a"}, bits.NewVec(3)); err == nil {
		t.Error("mis-sized truth table should be rejected")
	}
	if _, err := c.AddLUT("x", []string{"a"}, nil); err == nil {
		t.Error("nil truth table should be rejected")
	}
}

// TestFindNet: NetByName finds an existing net without growing the
// circuit, and creates an undriven one for a new name.
func TestFindNet(t *testing.T) {
	c := NewCircuit("f")
	c.AddInput("a")
	n := len(c.Nets)
	if id := c.NetByName("a"); id == NoNet || len(c.Nets) != n || c.Nets[id].Name != "a" {
		t.Errorf("NetByName(a) = %d with %d nets, want the input's net of %d", id, len(c.Nets), n)
	}
	id := c.NetByName("zzz")
	if len(c.Nets) != n+1 || c.Nets[id].Name != "zzz" || c.Nets[id].Driver != NoCell {
		t.Errorf("NetByName(zzz) did not add one undriven net: %+v", c.Nets[id])
	}
}

// findNet returns the net named name, or NoNet, without creating it.
func findNet(c *Circuit, name string) NetID {
	for i, n := range c.Nets {
		if n.Name == name {
			return NetID(i)
		}
	}
	return NoNet
}

// countKind returns the number of cells of kind k.
func countKind(c *Circuit, k CellKind) int {
	n := 0
	for _, cell := range c.Cells {
		if cell.Kind == k {
			n++
		}
	}
	return n
}

func buildSmallDesign(t *testing.T) *Design {
	t.Helper()
	k := 4
	d := &Design{Name: "d", K: k}
	_, aNet := d.AddInputPad("a")
	_, xNet := d.AddLogicBlock("x", []NetID{aNet}, truthConst(k, true), true)
	d.AddOutputPad("out", xNet)
	return d
}

func TestDesignValidate(t *testing.T) {
	d := buildSmallDesign(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.NumLogicBlocks() != 1 {
		t.Errorf("NumLogicBlocks = %d", d.NumLogicBlocks())
	}
	if len(d.Blocks) != 3 {
		t.Errorf("NumBlocks = %d", len(d.Blocks))
	}
}

func TestDesignValidateCatchesCorruption(t *testing.T) {
	cases := []func(*Design){
		func(d *Design) { d.K = 0 },
		func(d *Design) { d.Blocks[1].Inputs = make([]NetID, d.K+1) },
		func(d *Design) { d.Blocks[1].Truth = bits.NewVec(2) },
		func(d *Design) { d.Blocks[1].Output = NoNet },
		func(d *Design) { d.Nets[0].Driver = NoBlock },
		func(d *Design) { d.Nets[0].Sinks[0].Input = 3 },
		func(d *Design) { d.Blocks[0].Output = 1 },
		func(d *Design) { d.Blocks[2].Inputs = nil },
		func(d *Design) { d.Blocks[0].Inputs = []NetID{0} },
	}
	for i, corrupt := range cases {
		d := buildSmallDesign(t)
		corrupt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("corruption %d not detected", i)
		}
	}
}

func TestDesignStats(t *testing.T) {
	d := buildSmallDesign(t)
	s := d.Stats()
	if s.Blocks != 3 || s.LogicBlocks != 1 || s.InputPads != 1 || s.OutputPads != 1 {
		t.Errorf("stats blocks: %+v", s)
	}
	if s.Registered != 1 {
		t.Errorf("registered = %d", s.Registered)
	}
	if s.Nets != 2 || s.TotalSinks != 2 || s.MaxFanout != 1 {
		t.Errorf("stats nets: %+v", s)
	}
	if s.AvgFanout != 1.0 {
		t.Errorf("AvgFanout = %f", s.AvgFanout)
	}
}

// TestFanoutHistogram: both nets of the small design have fanout 1,
// and Stats' fanout summary agrees.
func TestFanoutHistogram(t *testing.T) {
	d := buildSmallDesign(t)
	for i, n := range d.Nets {
		if len(n.Sinks) != 1 {
			t.Errorf("net %d (%s) fanout %d, want 1", i, n.Name, len(n.Sinks))
		}
	}
	if s := d.Stats(); len(d.Nets) != 2 || s.MaxFanout != 1 || s.TotalSinks != 2 {
		t.Errorf("%d nets, stats %+v", len(d.Nets), s)
	}
}

func TestBlockKindString(t *testing.T) {
	if LogicBlock.String() != "lb" || InputPad.String() != "inpad" || OutputPad.String() != "outpad" {
		t.Error("BlockKind strings wrong")
	}
	if CellLUT.String() != "lut" || CellLatch.String() != "latch" ||
		CellInput.String() != "input" || CellOutput.String() != "output" {
		t.Error("CellKind strings wrong")
	}
}

// randomDesign builds a random but structurally valid packed design.
func randomDesign(rng *rand.Rand, nLB, nIn, nOut, k int) *Design {
	d := &Design{Name: "rand", K: k}
	for i := 0; i < nIn; i++ {
		d.AddInputPad("in" + string(rune('a'+i%26)))
	}
	for i := 0; i < nLB; i++ {
		nin := rng.Intn(k) + 1
		ins := make([]NetID, nin)
		for j := range ins {
			ins[j] = NetID(rng.Intn(len(d.Nets))) // any earlier net
		}
		d.AddLogicBlock("lb", ins, truthConst(k, rng.Intn(2) == 0), rng.Intn(2) == 0)
	}
	for i := 0; i < nOut; i++ {
		d.AddOutputPad("o", NetID(rng.Intn(len(d.Nets))))
	}
	return d
}

// Property: every randomly generated design passes validation and its
// stats are self-consistent.
func TestRandomDesignsValidate(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDesign(rng, 30+rng.Intn(50), 5, 5, 4)
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := d.Stats()
		if s.Blocks != s.LogicBlocks+s.InputPads+s.OutputPads {
			t.Fatalf("seed %d: block counts inconsistent", seed)
		}
		sinks := 0
		for _, n := range d.Nets {
			sinks += len(n.Sinks)
		}
		if sinks != s.TotalSinks {
			t.Fatalf("seed %d: nets carry %d sinks, Stats counts %d", seed, sinks, s.TotalSinks)
		}
	}
}
