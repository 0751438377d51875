package place

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/netlist"
)

// testDesign builds a random connected design with nLB logic blocks.
func testDesign(seed int64, nLB, nIn, nOut, k int) *netlist.Design {
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Name: "t", K: k}
	truth := bits.NewVec(1 << uint(k))
	truth.Set(1, true)
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
		_, n := d.AddLogicBlock("lb", ins, truth, false)
		nets = append(nets, n)
	}
	for i := 0; i < nOut; i++ {
		d.AddOutputPad("po", nets[len(nets)-1-i])
	}
	return d
}

func TestPlaceLegal(t *testing.T) {
	d := testDesign(1, 40, 6, 6, 4)
	g := arch.GridForSize(7) // 7x7 interior = 49 >= 40
	pl, err := Place(d, g, Options{Seed: 42, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(d); err != nil {
		t.Fatal(err)
	}
	// Every logic block interior, every pad on the ring.
	for b, blk := range d.Blocks {
		loc := pl.Loc[b]
		onRing := g.IsPerimeter(loc.X, loc.Y)
		if (blk.Kind == netlist.LogicBlock) == onRing {
			t.Errorf("block %d (%v) at (%d,%d), onRing=%v", b, blk.Kind, loc.X, loc.Y, onRing)
		}
		if pl.occ[pl.Grid.Index(loc.X, loc.Y)] != netlist.BlockID(b) {
			t.Errorf("At(%d,%d) inconsistent", loc.X, loc.Y)
		}
	}
}

func TestPlaceImprovesOverRandom(t *testing.T) {
	d := testDesign(2, 60, 8, 8, 4)
	g := arch.GridForSize(9)
	// Random-only baseline: FastExit with InnerNum tiny still anneals, so
	// instead compare against the mean of several random placements by
	// constructing via a placer with zero annealing (exit immediately).
	pl, err := Place(d, g, Options{Seed: 7, InnerNum: 2})
	if err != nil {
		t.Fatal(err)
	}
	annealed := Cost(d, pl)

	// Average cost of purely random placements.
	var randomSum float64
	const trials = 5
	for s := int64(0); s < trials; s++ {
		p := &placer{d: d, g: g, rng: rand.New(rand.NewSource(100 + s)),
			loc: make([]Loc, len(d.Blocks)), occ: make([]netlist.BlockID, g.NumMacros())}
		for x := 0; x < g.Width; x++ {
			for y := 0; y < g.Height; y++ {
				if g.IsPerimeter(x, y) {
					p.ring = append(p.ring, Loc{x, y})
				} else {
					p.interior = append(p.interior, Loc{x, y})
				}
			}
		}
		p.initialPlacement()
		p.recomputeAll()
		randomSum += p.cost
	}
	randomAvg := randomSum / trials
	if annealed >= randomAvg {
		t.Errorf("annealed cost %.1f not better than random average %.1f", annealed, randomAvg)
	}
	// Annealing should cut wirelength substantially (at least 25%).
	if annealed > 0.75*randomAvg {
		t.Errorf("annealed cost %.1f is a weak improvement over random %.1f", annealed, randomAvg)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	d := testDesign(3, 30, 5, 5, 4)
	g := arch.GridForSize(7)
	a, err := Place(d, g, Options{Seed: 11, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(d, g, Options{Seed: 11, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Loc {
		if a.Loc[i] != b.Loc[i] {
			t.Fatalf("block %d placed at %v then %v with same seed", i, a.Loc[i], b.Loc[i])
		}
	}
}

func TestPlaceDifferentSeedsDiffer(t *testing.T) {
	d := testDesign(4, 30, 5, 5, 4)
	g := arch.GridForSize(7)
	a, _ := Place(d, g, Options{Seed: 1, InnerNum: 1, FastExit: true})
	b, _ := Place(d, g, Options{Seed: 2, InnerNum: 1, FastExit: true})
	same := true
	for i := range a.Loc {
		if a.Loc[i] != b.Loc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements (suspicious)")
	}
}

func TestPlaceTooManyBlocks(t *testing.T) {
	d := testDesign(5, 30, 4, 4, 4)
	g := arch.GridForSize(5) // 25 interior < 30 LBs
	if _, err := Place(d, g, Options{Seed: 1}); err == nil {
		t.Error("overfull grid should fail")
	}
}

func TestPlaceTooManyPads(t *testing.T) {
	d := testDesign(6, 4, 30, 30, 4)
	g := arch.GridForSize(3) // ring of 16 < 60 pads
	if _, err := Place(d, g, Options{Seed: 1}); err == nil {
		t.Error("overfull ring should fail")
	}
}

func TestPlaceRejectsInvalidDesign(t *testing.T) {
	d := &netlist.Design{Name: "bad", K: 0}
	if _, err := Place(d, arch.GridForSize(4), Options{}); err == nil {
		t.Error("invalid design should fail")
	}
}

func TestPlaceRejectsInvalidGrid(t *testing.T) {
	d := testDesign(8, 4, 2, 2, 4)
	if _, err := Place(d, arch.Grid{}, Options{}); err == nil {
		t.Error("invalid grid should fail")
	}
}

func TestCrossingCount(t *testing.T) {
	if crossingCount(2) != 1.0 || crossingCount(3) != 1.0 {
		t.Error("small nets should have q=1")
	}
	if crossingCount(4) != 1.0828 {
		t.Errorf("q(4) = %f", crossingCount(4))
	}
	if q := crossingCount(60); q <= 2.7933 {
		t.Errorf("q(60) = %f, want > q(50)", q)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for i := 1; i < 80; i++ {
		q := crossingCount(i)
		if q < prev {
			t.Fatalf("crossingCount not monotone at %d", i)
		}
		prev = q
	}
}

func TestCostMatchesInternal(t *testing.T) {
	d := testDesign(9, 25, 5, 5, 4)
	g := arch.GridForSize(6)
	pl, err := Place(d, g, Options{Seed: 3, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	// Cost() recomputed from scratch must be finite and positive for a
	// connected design.
	c := Cost(d, pl)
	if c <= 0 {
		t.Errorf("cost = %f, want > 0", c)
	}
}

func TestPlacementValidateCatchesOverlap(t *testing.T) {
	d := testDesign(10, 4, 2, 2, 4)
	g := arch.GridForSize(4)
	pl, err := Place(d, g, Options{Seed: 3, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	pl.Loc[0] = pl.Loc[1] // force overlap
	if err := pl.Validate(d); err == nil {
		t.Error("overlap not detected")
	}
}

func BenchmarkPlaceSmall(b *testing.B) {
	d := testDesign(11, 60, 8, 8, 4)
	g := arch.GridForSize(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Place(d, g, Options{Seed: int64(i), InnerNum: 1, FastExit: true}); err != nil {
			b.Fatal(err)
		}
	}
}
