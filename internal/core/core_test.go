package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/bitstream"
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
			// Bias toward recent nets for locality, like real circuits.
			if rng.Intn(3) > 0 && len(nets) > 10 {
				ins[j] = nets[len(nets)-1-rng.Intn(10)]
			} else {
				ins[j] = nets[rng.Intn(len(nets))]
			}
		}
		truth := bits.NewVec(1 << uint(k))
		for b := 0; b < truth.Len(); b++ {
			truth.Set(b, rng.Intn(2) == 0)
		}
		_, n := d.AddLogicBlock("lb", ins, truth, rng.Intn(4) == 0)
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
	return &flow{d: d, pl: pl, gr: gr, res: res}
}

// TestEncodeDecodeEquivalence is the paper's central guarantee: the
// decoded VBS implements the same netlist connectivity as the original
// routing, for several designs and cluster sizes. (Encode itself runs
// the feedback verification; this test asserts it and re-checks
// explicitly.)
func TestEncodeDecodeEquivalence(t *testing.T) {
	for _, cluster := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			f := runFlow(t, seed, 30, 7, 8, 6)
			v, stats, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: cluster})
			if err != nil {
				t.Fatalf("cluster %d seed %d: %v", cluster, seed, err)
			}
			decoded, err := v.Decode(1)
			if err != nil {
				t.Fatalf("cluster %d seed %d decode: %v", cluster, seed, err)
			}
			if err := bitstream.Verify(decoded, f.d, f.pl, f.gr); err != nil {
				t.Fatalf("cluster %d seed %d verify: %v", cluster, seed, err)
			}
			if stats.UsedRegions == 0 || stats.Connections == 0 {
				t.Errorf("cluster %d seed %d: empty stats %+v", cluster, seed, stats)
			}
		}
	}
}

// TestVBSSmallerThanRaw: the headline property, Figure 4. With the raw
// fallback the VBS can never exceed raw size by more than the entry
// overhead; in practice it must be well below.
func TestVBSSmallerThanRaw(t *testing.T) {
	f := runFlow(t, 4, 40, 8, 12, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := v.CompressionRatio()
	if ratio >= 1.0 {
		t.Errorf("compression ratio %.2f, VBS not smaller than raw", ratio)
	}
	if ratio <= 0 {
		t.Errorf("ratio %.2f nonsensical", ratio)
	}
	if v.CompressionFactor() <= 1.0 {
		t.Errorf("factor %.2f should exceed 1", v.CompressionFactor())
	}
}

// TestClusteringImprovesCompression reproduces the Figure 5 trend on a
// small design: cluster size 2 compresses better than cluster size 1.
func TestClusteringImprovesCompression(t *testing.T) {
	f := runFlow(t, 5, 40, 8, 12, 6)
	v1, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Size() >= v1.Size() {
		t.Errorf("cluster 2 size %d >= cluster 1 size %d", v2.Size(), v1.Size())
	}
}

// TestRelocation: decoding the same VBS at different positions yields
// identical macro configurations, shifted (Section V's relocation
// claim).
func TestRelocation(t *testing.T) {
	f := runFlow(t, 6, 25, 6, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := arch.Grid{Width: v.TaskW + 7, Height: v.TaskH + 5}
	positions := []struct{ x, y int }{{0, 0}, {3, 2}, {7, 5}, {1, 4}}
	var reference *bitstream.Raw
	for _, pos := range positions {
		target := bitstream.New(v.P, big)
		if err := v.DecodeInto(target, pos.x, pos.y, 1); err != nil {
			t.Fatalf("decode at (%d,%d): %v", pos.x, pos.y, err)
		}
		if reference == nil {
			reference = target
			continue
		}
		// Compare the task rectangle against position (0,0).
		for x := 0; x < v.TaskW; x++ {
			for y := 0; y < v.TaskH; y++ {
				a := reference.At(x, y).Vec()
				b := target.At(pos.x+x, pos.y+y).Vec()
				if !a.Equal(b) {
					t.Fatalf("macro (%d,%d) differs when relocated to (%d,%d)", x, y, pos.x, pos.y)
				}
			}
		}
		// Outside the task rectangle everything stays blank.
		for x := 0; x < big.Width; x++ {
			for y := 0; y < big.Height; y++ {
				inside := x >= pos.x && x < pos.x+v.TaskW && y >= pos.y && y < pos.y+v.TaskH
				if !inside && target.At(x, y).Vec().OnesCount() != 0 {
					t.Fatalf("macro (%d,%d) outside task is configured", x, y)
				}
			}
		}
	}
}

func TestDecodeIntoBoundsCheck(t *testing.T) {
	f := runFlow(t, 7, 15, 5, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	small := bitstream.New(v.P, arch.Grid{Width: v.TaskW - 1, Height: v.TaskH})
	if err := v.DecodeInto(small, 0, 0, 1); err == nil {
		t.Error("oversized task accepted")
	}
	big := bitstream.New(v.P, arch.Grid{Width: v.TaskW + 2, Height: v.TaskH + 2})
	if err := v.DecodeInto(big, 3, 0, 1); err == nil {
		t.Error("out-of-bounds placement accepted")
	}
	wrongArch := bitstream.New(arch.Params{W: 9, K: 6}, arch.Grid{Width: v.TaskW, Height: v.TaskH})
	if err := v.DecodeInto(wrongArch, 0, 0, 1); err == nil {
		t.Error("architecture mismatch accepted")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	for _, cluster := range []int{1, 2, 4} {
		f := runFlow(t, 8, 25, 6, 8, 6)
		v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		data, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		// The parsed VBS must decode to the identical raw bitstream.
		a, err := v.Decode(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Decode(1)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("cluster %d: decode differs after serialization", cluster)
		}
		// Size accounting: the payload must be Size() bits plus byte
		// padding, after the 13-byte preamble.
		wantBytes := 13 + (v.Size()+7)/8
		if len(data) != wantBytes {
			t.Errorf("cluster %d: encoded %d bytes, want %d (Size=%d bits)",
				cluster, len(data), wantBytes, v.Size())
		}
	}
}

func TestParseErrors(t *testing.T) {
	f := runFlow(t, 9, 10, 4, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"magic", append([]byte("XYZ1"), good[4:]...)},
		{"version", func() []byte { b := append([]byte(nil), good...); b[4] = 9; return b }()},
		{"truncated", good[:20]},
		{"bad arch", func() []byte { b := append([]byte(nil), good...); b[5], b[6] = 0, 0; return b }()},
		{"zero cluster", func() []byte { b := append([]byte(nil), good...); b[8] = 0; return b }()},
	}
	for _, c := range cases {
		if _, err := Parse(c.data); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestMacroSkipping: unused regions must not appear in the container.
func TestMacroSkipping(t *testing.T) {
	// Tiny design on a large grid: most macros are empty.
	f := runFlow(t, 10, 6, 8, 8, 6)
	v, stats, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Entries) >= stats.Regions {
		t.Errorf("%d entries for %d regions: no skipping happened", len(v.Entries), stats.Regions)
	}
	vAll, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{KeepEmptyRegions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(vAll.Entries) != stats.Regions {
		t.Errorf("KeepEmptyRegions kept %d of %d", len(vAll.Entries), stats.Regions)
	}
	if vAll.Size() <= v.Size() {
		t.Error("keeping empty regions should cost bits")
	}
	// Both must decode identically.
	a, _ := v.Decode(1)
	b, _ := vAll.Decode(1)
	if !a.Equal(b) {
		t.Error("empty entries changed the decoded configuration")
	}
}

// TestFallbackGuarantee: with fallback disabled, encoding may fail;
// with it enabled, encoding must always succeed and verify. Exercised
// across many seeds as a randomized property.
func TestFallbackGuarantee(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		f := runFlow(t, seed, 35, 7, 9, 6)
		v, stats, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_ = stats
		decoded, err := v.Decode(1)
		if err != nil {
			t.Fatalf("seed %d decode: %v", seed, err)
		}
		if err := bitstream.Verify(decoded, f.d, f.pl, f.gr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	f := runFlow(t, 11, 30, 7, 8, 6)
	v, stats, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Regions != v.RegionsW()*v.RegionsH() {
		t.Errorf("Regions = %d, want %d", stats.Regions, v.RegionsW()*v.RegionsH())
	}
	raws := 0
	conns := 0
	for i := range v.Entries {
		if v.Entries[i].Raw {
			raws++
		}
		conns += len(v.Entries[i].Conns)
	}
	if raws != stats.RawRegions {
		t.Errorf("RawRegions = %d, counted %d", stats.RawRegions, raws)
	}
	if conns != stats.Connections {
		t.Errorf("Connections = %d, counted %d", stats.Connections, conns)
	}
	if stats.RawRegions != stats.CountFallbacks+stats.RouteFallbacks+
		stats.DeadEdgeFallbacks+stats.ConflictFallbacks {
		t.Errorf("fallback causes don't sum: %+v", stats)
	}
}

func TestEntrySizeAccounting(t *testing.T) {
	f := runFlow(t, 12, 20, 5, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := v.HeaderSizeBits()
	for i := range v.Entries {
		e := &v.Entries[i]
		sz := v.EntrySizeBits(e)
		// Recompute by hand for cluster 1.
		want := 2*v.RegionCoordBits() + 1 + 1 + len(e.Logic)*v.P.NLB()
		if e.Raw {
			want += len(e.RawBits) * (v.P.NRaw() - v.P.NLB())
		} else {
			want += v.RouteCountBits() + len(e.Conns)*2*v.MBits()
		}
		if sz != want {
			t.Fatalf("entry %d size %d, want %d", i, sz, want)
		}
		total += sz
	}
	if total != v.Size() {
		t.Errorf("Size() = %d, sum = %d", v.Size(), total)
	}
}

func TestTableIFieldWidths(t *testing.T) {
	// Paper's worked example: W=5, K=6 -> M=5; W=20 -> M=7.
	v := &VBS{P: arch.PaperExample(), Cluster: 1, TaskW: 8, TaskH: 8}
	if v.MBits() != 5 {
		t.Errorf("M = %d, want 5", v.MBits())
	}
	if v.RouteCountBits() != bits.CeilLog2(10) {
		t.Errorf("route count bits = %d", v.RouteCountBits())
	}
	v20 := &VBS{P: arch.Default(), Cluster: 1, TaskW: 37, TaskH: 37}
	if v20.MBits() != 7 {
		t.Errorf("M(W=20) = %d, want 7", v20.MBits())
	}
	if v20.CoordBits() != 6 {
		t.Errorf("coord bits = %d, want 6 for size 37", v20.CoordBits())
	}
}

func TestValidateRejectsCorruptVBS(t *testing.T) {
	f := runFlow(t, 13, 15, 5, 8, 6)
	fresh := func() *VBS {
		v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cases := []func(*VBS){
		func(v *VBS) { v.Cluster = 0 },
		func(v *VBS) { v.TaskW = 0 },
		func(v *VBS) { v.Entries[0].X = -1 },
		func(v *VBS) { v.Entries[0], v.Entries[1] = v.Entries[1], v.Entries[0] },
		func(v *VBS) {
			v.Entries[0].Logic = append(v.Entries[0].Logic, LogicItem{Member: 0, Data: bits.NewVec(3)})
		},
		func(v *VBS) {
			v.Entries[0].Raw = true // raw without payload
		},
	}
	for i, corrupt := range cases {
		v := fresh()
		if len(v.Entries) < 2 {
			t.Fatal("need at least 2 entries for this test")
		}
		corrupt(v)
		if err := v.Validate(); err == nil {
			t.Errorf("corruption %d not detected", i)
		}
	}
}

func BenchmarkEncodeCluster1(b *testing.B) {
	f := runFlow(b, 14, 40, 8, 10, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{SkipVerify: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCluster1(b *testing.B) {
	f := runFlow(b, 15, 40, 8, 10, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Decode(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCluster3(b *testing.B) {
	f := runFlow(b, 15, 40, 8, 10, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Decode(1); err != nil {
			b.Fatal(err)
		}
	}
}
