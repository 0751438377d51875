package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/netlist"
)

// randomCircuit builds a random sequential circuit with LUTs up to
// maxIn inputs.
func randomCircuit(rng *rand.Rand, nLUT, maxIn int) *netlist.Circuit {
	c := netlist.NewCircuit("rnd")
	var nets []string
	for i := 0; i < 6; i++ {
		n := fmt.Sprintf("pi%d", i)
		c.AddInput(n)
		nets = append(nets, n)
	}
	for i := 0; i < nLUT; i++ {
		nin := rng.Intn(maxIn) + 1
		ins := make([]string, nin)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		truth := bits.NewVec(1 << uint(nin))
		for b := 0; b < truth.Len(); b++ {
			truth.Set(b, rng.Intn(2) == 0)
		}
		out := fmt.Sprintf("n%d", i)
		if _, err := c.AddLUT(out, ins, truth); err != nil {
			panic(err)
		}
		nets = append(nets, out)
		// Occasionally register the value through a latch.
		if rng.Intn(3) == 0 {
			q := fmt.Sprintf("q%d", i)
			c.AddLatch(out, q)
			nets = append(nets, q)
		}
	}
	for i := 0; i < 4; i++ {
		c.AddOutput(nets[len(nets)-1-i])
	}
	return c
}

// stepBoth drives two simulators with the same random inputs and
// reports the first output mismatch.
func assertEquivalent(t *testing.T, rng *rand.Rand, a, b interface {
	Step(map[string]bool) map[string]bool
}, inputNames []string, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		in := make(map[string]bool, len(inputNames))
		for _, n := range inputNames {
			in[n] = rng.Intn(2) == 0
		}
		oa, ob := a.Step(in), b.Step(in)
		if len(oa) != len(ob) {
			t.Fatalf("step %d: output count %d != %d", s, len(oa), len(ob))
		}
		for k, v := range oa {
			if ob[k] != v {
				t.Fatalf("step %d: output %q = %v, want %v", s, k, ob[k], v)
			}
		}
	}
}

func TestMapToKPreservesFunction(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 20, 9) // LUTs up to 9 inputs
		mapped, err := MapToK(c, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := mapped.Validate(); err != nil {
			t.Fatalf("seed %d: mapped invalid: %v", seed, err)
		}
		for _, cell := range mapped.Cells {
			if cell.Kind == netlist.CellLUT && len(cell.Inputs) > 4 {
				t.Fatalf("seed %d: LUT with %d inputs survived", seed, len(cell.Inputs))
			}
		}
		s1, err := netlist.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := netlist.NewSimulator(mapped)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, rng, s1, s2, s1.InputNames(), 40)
	}
}

func TestMapToKRejectsTinyK(t *testing.T) {
	if _, err := MapToK(netlist.NewCircuit("x"), 1); err == nil {
		t.Error("K=1 should be rejected")
	}
}

func TestPackPreservesFunction(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		c := randomCircuit(rng, 25, 6)
		d, err := Synthesize(c, 6)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s1, err := netlist.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := netlist.NewDesignSimulator(d)
		if err != nil {
			t.Fatal(err)
		}
		assertEquivalent(t, rng, s1, s2, s1.InputNames(), 40)
	}
}

func TestPackMergesExclusiveLatch(t *testing.T) {
	c := netlist.NewCircuit("m")
	c.AddInput("a")
	c.AddInput("b")
	and2 := bits.NewVec(4)
	and2.Set(3, true)
	if _, err := c.AddLUT("x", []string{"a", "b"}, and2); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("x", "q")
	c.AddOutput("q")
	d, err := Pack(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 2 input pads + 1 merged LB + 1 output pad.
	if got := len(d.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4 (latch should merge)", got)
	}
	if got := d.NumLogicBlocks(); got != 1 {
		t.Fatalf("logic blocks = %d, want 1", got)
	}
	var lb *netlist.Block
	for i := range d.Blocks {
		if d.Blocks[i].Kind == netlist.LogicBlock {
			lb = &d.Blocks[i]
		}
	}
	if !lb.Registered {
		t.Error("merged block should be registered")
	}
	if lb.Name != "q" {
		t.Errorf("merged block name = %q, want q", lb.Name)
	}
}

func TestPackKeepsSharedLatchSeparate(t *testing.T) {
	// Net x feeds both a latch and an output pad, so the latch cannot
	// be absorbed: the combinational value must stay visible.
	c := netlist.NewCircuit("s")
	c.AddInput("a")
	id := bits.NewVec(2)
	id.Set(1, true)
	if _, err := c.AddLUT("x", []string{"a"}, id); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("x", "q")
	c.AddOutput("x")
	c.AddOutput("q")
	d, err := Pack(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NumLogicBlocks(); got != 2 {
		t.Fatalf("logic blocks = %d, want 2 (LUT + pass-through FF)", got)
	}
	// Behaviour check: q must be x delayed by one cycle.
	sim, err := netlist.NewDesignSimulator(d)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false}
	prev := false
	for i, v := range seq {
		out := sim.Step(map[string]bool{"a": v})
		if out["x"] != v {
			t.Errorf("step %d: x = %v, want %v", i, out["x"], v)
		}
		if out["q"] != prev {
			t.Errorf("step %d: q = %v, want %v", i, out["q"], prev)
		}
		prev = v
	}
}

func TestPackRejectsWideLUT(t *testing.T) {
	c := netlist.NewCircuit("w")
	ins := make([]string, 7)
	for i := range ins {
		ins[i] = fmt.Sprintf("i%d", i)
		c.AddInput(ins[i])
	}
	if _, err := c.AddLUT("x", ins, bits.NewVec(128)); err != nil {
		t.Fatal(err)
	}
	c.AddOutput("x")
	if _, err := Pack(c, 6); err == nil {
		t.Error("7-input LUT should be rejected at K=6")
	}
	if _, err := Synthesize(c, 6); err != nil {
		t.Errorf("Synthesize should decompose it: %v", err)
	}
}

func TestExpandTruth(t *testing.T) {
	and2 := bits.NewVec(4)
	and2.Set(3, true)
	e := ExpandTruth(and2, 4)
	if e.Len() != 16 {
		t.Fatalf("len = %d", e.Len())
	}
	for i := 0; i < 16; i++ {
		want := i&3 == 3
		if e.Get(i) != want {
			t.Errorf("expanded[%d] = %v, want %v", i, e.Get(i), want)
		}
	}
}

func TestExpandTruthRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExpandTruth(bits.NewVec(3), 4)
}

func TestSynthesizeCounters(t *testing.T) {
	// A 3-bit counter: q_i toggles when all lower bits are 1.
	c := netlist.NewCircuit("ctr")
	xor2 := bits.NewVec(4)
	xor2.Set(1, true)
	xor2.Set(2, true)
	and2 := bits.NewVec(4)
	and2.Set(3, true)
	one := bits.NewVec(2)
	one.Set(0, true)
	one.Set(1, true)

	if _, err := c.AddLUT("d0", []string{"q0"}, mustNot(t)); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("d0", "q0")
	if _, err := c.AddLUT("d1", []string{"q1", "q0"}, xor2); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("d1", "q1")
	if _, err := c.AddLUT("c01", []string{"q0", "q1"}, and2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLUT("d2", []string{"q2", "c01"}, xor2); err != nil {
		t.Fatal(err)
	}
	c.AddLatch("d2", "q2")
	c.AddOutput("q0")
	c.AddOutput("q1")
	c.AddOutput("q2")

	d, err := Synthesize(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewDesignSimulator(d)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 16; cycle++ {
		out := sim.Step(nil)
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
			t.Fatalf("cycle %d: counter = %d, want %d", cycle, got, want)
		}
	}
}

func mustNot(t *testing.T) *bits.Vec {
	t.Helper()
	v := bits.NewVec(2)
	v.Set(0, true)
	return v
}
