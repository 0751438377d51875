package bitstream

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
)

func testDesign(seed int64, nLB, nIn, nOut, k int) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Name: "t", K: k}
	var nets []netlist.NetID
	for i := 0; i < nIn; i++ {
		_, n := d.AddInputPad("pi")
		nets = append(nets, n)
	}
	for i := 0; i < nLB; i++ {
		nin := rng.Intn(k-1) + 1
		ins := make([]netlist.NetID, nin)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		truth := bits.NewVec(1 << uint(k))
		for b := 0; b < truth.Len(); b++ {
			truth.Set(b, rng.Intn(2) == 0)
		}
		_, n := d.AddLogicBlock("lb", ins, truth, rng.Intn(2) == 0)
		nets = append(nets, n)
	}
	for i := 0; i < nOut; i++ {
		d.AddOutputPad("po", nets[len(nets)-1-i])
	}
	return d
}

type flow struct {
	d   *netlist.Design
	pl  *place.Placement
	gr  *rrg.Graph
	res *route.Result
	raw *Raw
}

func runFlow(t testing.TB, seed int64, nLB, size, w, k int) *flow {
	t.Helper()
	d := testDesign(seed, nLB, 5, 5, k)
	pl, err := place.Place(d, arch.GridForSize(size), place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := rrg.Build(arch.Params{W: w, K: k}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Generate(d, pl, res)
	if err != nil {
		t.Fatal(err)
	}
	return &flow{d: d, pl: pl, gr: gr, res: res, raw: raw}
}

func TestGenerateAndVerify(t *testing.T) {
	f := runFlow(t, 1, 25, 6, 8, 6)
	if err := Verify(f.raw, f.d, f.pl, f.gr); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBitsMatchesEq1(t *testing.T) {
	f := runFlow(t, 2, 10, 4, 8, 6)
	p := arch.Params{W: 8, K: 6}
	want := f.pl.Grid.NumMacros() * p.NRaw()
	if f.raw.SizeBits() != want {
		t.Errorf("SizeBits = %d, want %d", f.raw.SizeBits(), want)
	}
}

func TestVerifyDetectsBrokenRoute(t *testing.T) {
	f := runFlow(t, 3, 20, 5, 8, 6)
	// Turn off one switch of a routed net.
	var victim route.TreeEdge
	found := false
	for ni := range f.res.Routes {
		if len(f.res.Routes[ni].Edges) > 0 {
			victim = f.res.Routes[ni].Edges[0]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no routed edges")
	}
	f.raw.Configs[victim.Macro].SetSwitch(int(victim.Switch), false)
	if err := Verify(f.raw, f.d, f.pl, f.gr); err == nil {
		t.Error("broken route not detected")
	}
}

func TestVerifyDetectsShort(t *testing.T) {
	f := runFlow(t, 4, 20, 5, 8, 6)
	// Short two different nets' sources together via switches at the
	// source macros: find two LB outputs and crank switches joining
	// their pin wires to wires until components merge. Simplest robust
	// short: turn on every switch everywhere.
	for _, cfg := range f.raw.Configs {
		for si := 0; si < len(f.raw.P.Switches()); si++ {
			cfg.SetSwitch(si, true)
		}
	}
	if err := Verify(f.raw, f.d, f.pl, f.gr); err == nil {
		t.Error("total short not detected")
	}
}

func TestVerifyDetectsWrongLogic(t *testing.T) {
	f := runFlow(t, 5, 15, 5, 8, 6)
	// Flip a LUT bit of some logic block.
	for bi := range f.d.Blocks {
		if f.d.Blocks[bi].Kind != netlist.LogicBlock {
			continue
		}
		loc := f.pl.Loc[bi]
		v := f.raw.At(loc.X, loc.Y).Vec()
		v.Set(0, !v.Get(0))
		break
	}
	if err := Verify(f.raw, f.d, f.pl, f.gr); err == nil {
		t.Error("logic corruption not detected")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := runFlow(t, 6, 20, 5, 8, 6)
	data := f.raw.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(f.raw) {
		t.Error("decode(encode(raw)) != raw")
	}
	// Size: header + ceil(bits/8).
	want := 12 + (f.raw.SizeBits()+7)/8
	if len(data) != want {
		t.Errorf("encoded %d bytes, want %d", len(data), want)
	}
}

func TestDecodeErrors(t *testing.T) {
	f := runFlow(t, 7, 6, 4, 6, 4)
	good := f.raw.Encode()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"truncated header", good[:8]},
		{"truncated payload", good[:len(good)-4]},
		{"zero width params", func() []byte {
			b := append([]byte(nil), good...)
			b[4], b[5] = 0, 0
			return b
		}()},
		{"one trailing garbage byte", append(append([]byte(nil), good...), 0x00)},
		{"trailing garbage run", append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef)},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestDecodeToleratesAlignmentPadding pins the boundary of the
// trailing-garbage check: the up-to-7 zero pad bits Encode emits are
// legal, one full extra byte is not (see TestDecodeErrors).
func TestDecodeToleratesAlignmentPadding(t *testing.T) {
	f := runFlow(t, 7, 6, 4, 6, 4)
	data := f.raw.Encode()
	if padBits := len(data[12:])*8 - f.raw.SizeBits(); padBits == 0 {
		t.Skipf("payload is byte-aligned; padding tolerance not exercised")
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("aligned container rejected: %v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	f := runFlow(t, 8, 10, 4, 6, 4)
	c := f.raw.Clone()
	if !c.Equal(f.raw) {
		t.Fatal("clone not equal")
	}
	c.Configs[0].Vec().Set(0, !c.Configs[0].Vec().Get(0))
	if c.Equal(f.raw) {
		t.Error("Equal missed a difference")
	}
	other := New(arch.Params{W: 7, K: 4}, f.raw.G)
	if other.Equal(f.raw) {
		t.Error("Equal must compare params")
	}
}

func TestConnectivityRejectsMismatchedGraph(t *testing.T) {
	f := runFlow(t, 9, 10, 4, 6, 4)
	wrong, err := rrg.Build(arch.Params{W: 7, K: 4}, f.raw.G)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Connectivity(f.raw, wrong); err == nil {
		t.Error("mismatched graph accepted")
	}
}

func TestLogicVecPads(t *testing.T) {
	p := arch.PaperExample()
	inPad := netlist.Block{Kind: netlist.InputPad}
	v := LogicVec(p, &inPad)
	if v.OnesCount() != 0 {
		t.Error("pad logic should be all zero")
	}
	truth := bits.NewVec(64)
	truth.Set(5, true)
	lb := netlist.Block{Kind: netlist.LogicBlock, Truth: truth, Registered: true}
	v = LogicVec(p, &lb)
	if !v.Get(5) || !v.Get(p.NLB()-1) {
		t.Error("logic vec missing truth or FF bit")
	}
	if v.OnesCount() != 2 {
		t.Errorf("logic vec has %d ones", v.OnesCount())
	}
}

func BenchmarkGenerate(b *testing.B) {
	f := runFlow(b, 10, 30, 6, 8, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(f.d, f.pl, f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	f := runFlow(b, 11, 30, 6, 8, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(f.raw, f.d, f.pl, f.gr); err != nil {
			b.Fatal(err)
		}
	}
}
