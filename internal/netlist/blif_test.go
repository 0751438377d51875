package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bits"
)

const sampleBLIF = `
# A tiny sequential circuit.
.model counter
.inputs a b \
        c
.outputs q y
.names a b c x   # 3-input majority
11- 1
1-1 1
-11 1
.latch x q re clk 0
.names q c y
01 1
10 1
.end
`

func TestParseBLIFBasics(t *testing.T) {
	c, err := ParseBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "counter" {
		t.Errorf("model name = %q", c.Name)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := countKind(c, CellInput); got != 3 {
		t.Errorf("inputs = %d, want 3 (continuation line)", got)
	}
	if got := countKind(c, CellOutput); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	if got := countKind(c, CellLUT); got != 2 {
		t.Errorf("LUTs = %d, want 2", got)
	}
	if got := countKind(c, CellLatch); got != 1 {
		t.Errorf("latches = %d, want 1", got)
	}
}

func TestParseBLIFMajorityTruth(t *testing.T) {
	c, err := ParseBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	var maj *Cell
	for i := range c.Cells {
		if c.Cells[i].Kind == CellLUT && c.Nets[c.Cells[i].Output].Name == "x" {
			maj = &c.Cells[i]
		}
	}
	if maj == nil {
		t.Fatal("LUT x not found")
	}
	// Majority of 3: on iff at least two inputs set. Input 0 is the
	// least-significant selector bit.
	for combo := 0; combo < 8; combo++ {
		pop := combo&1 + combo>>1&1 + combo>>2&1
		want := pop >= 2
		if got := maj.Truth.Get(combo); got != want {
			t.Errorf("majority(%03b) = %v, want %v", combo, got, want)
		}
	}
}

func TestParseBLIFOffSetCover(t *testing.T) {
	src := `
.model offset
.inputs a b
.outputs z
.names a b z
11 0
.end
`
	c, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	lut := c.Cells[c.Nets[findNet(c, "z")].Driver]
	// Off-set cover {11}: z = NAND(a, b).
	want := []bool{true, true, true, false}
	for i, w := range want {
		if lut.Truth.Get(i) != w {
			t.Errorf("NAND(%02b) = %v, want %v", i, lut.Truth.Get(i), w)
		}
	}
}

func TestParseBLIFConstants(t *testing.T) {
	src := `
.model consts
.outputs one zero
.names one
1
.names zero
.end
`
	c, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	one := c.Cells[c.Nets[findNet(c, "one")].Driver]
	if one.Truth.Len() != 1 || !one.Truth.Get(0) {
		t.Error("constant one mis-parsed")
	}
	zero := c.Cells[c.Nets[findNet(c, "zero")].Driver]
	if zero.Truth.Len() != 1 || zero.Truth.Get(0) {
		t.Error("constant zero mis-parsed")
	}
}

func TestParseBLIFErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"mixed cover", ".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n0 0\n.end"},
		{"bad output col", ".model m\n.inputs a\n.outputs z\n.names a z\n1 2\n.end"},
		{"bad input col", ".model m\n.inputs a\n.outputs z\n.names a z\nx 1\n.end"},
		{"wrong width", ".model m\n.inputs a b\n.outputs z\n.names a b z\n1 1\n.end"},
		{"unknown directive", ".model m\n.gate and2 A=a B=b O=z\n.end"},
		{"names no signal", ".model m\n.names\n.end"},
		{"latch short", ".model m\n.latch x\n.end"},
		{"two models", ".model m\n.model n\n.end"},
		{"dangling continuation", ".model m\n.inputs a \\"},
		{"stray line", ".model m\nfoo bar\n.end"},
	}
	for _, c := range cases {
		if _, err := ParseBLIF(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestWriteBLIFRoundTrip(t *testing.T) {
	orig, err := ParseBLIF(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBLIF(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if back.Name != orig.Name {
		t.Errorf("name %q != %q", back.Name, orig.Name)
	}
	for _, k := range []CellKind{CellInput, CellOutput, CellLUT, CellLatch} {
		if countKind(back, k) != countKind(orig, k) {
			t.Errorf("%v count %d != %d", k, countKind(back, k), countKind(orig, k))
		}
	}
	// Truth tables must survive the round trip net-by-net.
	for i := range orig.Cells {
		if orig.Cells[i].Kind != CellLUT {
			continue
		}
		name := orig.Nets[orig.Cells[i].Output].Name
		bnet := findNet(back, name)
		if bnet == NoNet {
			t.Fatalf("net %q lost", name)
		}
		bc := back.Cells[back.Nets[bnet].Driver]
		if !bc.Truth.Equal(orig.Cells[i].Truth) {
			t.Errorf("truth table of %q changed: %s -> %s", name, orig.Cells[i].Truth, bc.Truth)
		}
	}
}

// Property: random LUT circuits survive write/parse with identical
// structure and truth tables.
func TestRandomBLIFRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCircuit("rt")
		names := []string{}
		for i := 0; i < 4; i++ {
			n := "pi" + string(rune('a'+i))
			c.AddInput(n)
			names = append(names, n)
		}
		for i := 0; i < 12; i++ {
			nin := rng.Intn(3) + 1
			ins := make([]string, nin)
			for j := range ins {
				ins[j] = names[rng.Intn(len(names))]
			}
			truth := bits.NewVec(1 << uint(nin))
			for b := 0; b < truth.Len(); b++ {
				truth.Set(b, rng.Intn(2) == 0)
			}
			out := "n" + string(rune('0'+i%10)) + string(rune('a'+i/10))
			if _, err := c.AddLUT(out, ins, truth); err != nil {
				t.Fatal(err)
			}
			names = append(names, out)
		}
		c.AddOutput(names[len(names)-1])
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBLIF(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if countKind(back, CellLUT) != countKind(c, CellLUT) {
			t.Fatalf("seed %d: LUT count changed", seed)
		}
		for i := range c.Cells {
			if c.Cells[i].Kind != CellLUT {
				continue
			}
			name := c.Nets[c.Cells[i].Output].Name
			bc := back.Cells[back.Nets[findNet(back, name)].Driver]
			if !bc.Truth.Equal(c.Cells[i].Truth) {
				t.Fatalf("seed %d: truth of %q changed", seed, name)
			}
		}
	}
}
