package arch

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
)

// TestEq1PaperExample pins the worked example of Section II-B:
// K=6, W=5, L=7 gives NLB=65, NC+=28, NCT=7, Nraw=284, M=5 and a
// break-even point of 28 connections.
func TestEq1PaperExample(t *testing.T) {
	p := PaperExample()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.L(); got != 7 {
		t.Errorf("L = %d, want 7", got)
	}
	if got := p.NLB(); got != 65 {
		t.Errorf("NLB = %d, want 65", got)
	}
	if got := p.NCross(); got != 28 {
		t.Errorf("NC+ = %d, want 28", got)
	}
	if got := p.NTee(); got != 7 {
		t.Errorf("NCT = %d, want 7", got)
	}
	if got := p.NS(); got != 5 {
		t.Errorf("NS = %d, want 5", got)
	}
	if got := p.NRaw(); got != 284 {
		t.Errorf("Nraw = %d, want 284", got)
	}
	if got := p.NumIOCodes(); got != 28 {
		t.Errorf("I/O codes = %d, want 28", got)
	}
	if got := bits.CeilLog2(p.NumIOCodes()); got != 5 {
		t.Errorf("M = %d, want 5", got)
	}
	// Break-even: floor(Nraw / 2M) coded connections.
	if got := p.NRaw() / (2 * bits.CeilLog2(p.NumIOCodes())); got != 28 {
		t.Errorf("break-even = %d, want 28", got)
	}
}

// TestEq1Normalized pins the normalized W=20 architecture used for the
// paper's Figures 4 and 5.
func TestEq1Normalized(t *testing.T) {
	p := Default()
	if got := p.NRaw(); got != 1004 {
		t.Errorf("Nraw(W=20) = %d, want 1004", got)
	}
	if got := bits.CeilLog2(p.NumIOCodes()); got != 7 {
		t.Errorf("M(W=20) = %d, want 7", got)
	}
	if got := p.NumIOCodes(); got != 88 {
		t.Errorf("I/O codes = %d, want 88", got)
	}
}

// TestEq1ClosedForm checks Nraw = 44 + 48W for K=6 across widths.
func TestEq1ClosedForm(t *testing.T) {
	for w := 1; w <= 64; w++ {
		p := Params{W: w, K: 6}
		if got, want := p.NRaw(), 44+48*w; got != want {
			t.Errorf("Nraw(W=%d) = %d, want %d", w, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{{W: 0, K: 6}, {W: -1, K: 6}, {W: 5, K: 0}, {W: 5, K: 17}}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
	}
	if err := (Params{W: 1, K: 1}).Validate(); err != nil {
		t.Errorf("minimal params should validate: %v", err)
	}
}

func TestCondIndexing(t *testing.T) {
	p := PaperExample()
	if got := p.NumConds(); got != 27 {
		t.Fatalf("NumConds = %d, want 27", got)
	}
	cases := []struct {
		c    Cond
		kind CondKind
		idx  int
	}{
		{p.CondHW(0), KindHW, 0},
		{p.CondHW(4), KindHW, 4},
		{p.CondVW(0), KindVW, 0},
		{p.CondInW(3), KindInW, 3},
		{p.CondInS(2), KindInS, 2},
		{p.CondPin(0), KindPin, 0},
		{p.CondPin(6), KindPin, 6},
	}
	for _, c := range cases {
		k, i := p.CondInfo(c.c)
		if k != c.kind || i != c.idx {
			t.Errorf("CondInfo(%d) = (%v,%d), want (%v,%d)", c.c, k, i, c.kind, c.idx)
		}
	}
}

func TestCondNameAndSides(t *testing.T) {
	p := PaperExample()
	if got := p.CondName(p.CondPin(2)); got != "PW2" {
		t.Errorf("CondName = %q", got)
	}
	if got := p.CondName(CondNone); got != "none" {
		t.Errorf("CondName(none) = %q", got)
	}
	if West.String() != "W" || North.String() != "N" {
		t.Error("Side.String is wrong")
	}
}

// TestIOCodeRoundTrip checks that every non-null I/O code maps to a
// conductor and back.
func TestIOCodeRoundTrip(t *testing.T) {
	for _, p := range []Params{PaperExample(), Default(), {W: 2, K: 4}} {
		for code := 1; code < p.NumIOCodes(); code++ {
			c, err := p.CondForCode(IOCode(code))
			if err != nil {
				t.Fatalf("W=%d CondForCode(%d): %v", p.W, code, err)
			}
			if back := p.CodeForCond(c); back != IOCode(code) {
				t.Errorf("W=%d code %d -> cond %d -> code %d", p.W, code, c, back)
			}
		}
		// Null code.
		c, err := p.CondForCode(IONull)
		if err != nil || c != CondNone {
			t.Errorf("null code: (%d,%v)", c, err)
		}
		if p.CodeForCond(CondNone) != IONull {
			t.Error("CodeForCond(CondNone) != IONull")
		}
		// Out-of-range codes must error.
		if _, err := p.CondForCode(IOCode(p.NumIOCodes())); err == nil {
			t.Error("out-of-range code should fail")
		}
		if _, err := p.CondForCode(IOCode(-1)); err == nil {
			t.Error("negative code should fail")
		}
	}
}

// TestIOCodeSideSemantics pins the meaning of each side: West I/O t is
// the incoming neighbour wire InW(t), East I/O t is the macro's own
// HW(t), and so on.
func TestIOCodeSideSemantics(t *testing.T) {
	p := PaperExample()
	cases := []struct {
		code IOCode
		want Cond
	}{
		{p.CodeForSide(West, 2), p.CondInW(2)},
		{p.CodeForSide(South, 0), p.CondInS(0)},
		{p.CodeForSide(East, 4), p.CondHW(4)},
		{p.CodeForSide(North, 1), p.CondVW(1)},
		{p.CodeForPin(3), p.CondPin(3)},
	}
	for _, c := range cases {
		got, err := p.CondForCode(c.code)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("code %d -> %s, want %s", c.code, p.CondName(got), p.CondName(c.want))
		}
	}
}

// TestSwitchLayoutExact verifies the canonical raw layout: bit counts
// per switch kind and total coverage of [NLB, NRaw) with no gaps.
func TestSwitchLayoutExact(t *testing.T) {
	for _, p := range []Params{PaperExample(), Default(), {W: 2, K: 2}} {
		sws := p.Switches()
		wantCount := 6*p.W + p.L()*p.W // 6 pairs per track + one junction per pin per track
		if len(sws) != wantCount {
			t.Fatalf("W=%d: %d switches, want %d", p.W, len(sws), wantCount)
		}
		next := p.NLB()
		var nPair, nCross, nTee int
		for i, sw := range sws {
			if sw.FirstBit != next {
				t.Fatalf("W=%d switch %d starts at bit %d, want %d", p.W, i, sw.FirstBit, next)
			}
			next += sw.NumBits
			switch sw.Kind {
			case SwitchBoxPair:
				nPair++
				if sw.NumBits != 1 {
					t.Errorf("sb pair with %d bits", sw.NumBits)
				}
			case CrossJunction:
				nCross++
				if sw.NumBits != 6 {
					t.Errorf("cross junction with %d bits", sw.NumBits)
				}
			case TeeJunction:
				nTee++
				if sw.NumBits != 3 {
					t.Errorf("tee junction with %d bits", sw.NumBits)
				}
			}
			if sw.A >= sw.B {
				t.Errorf("switch %d not normalized: %d >= %d", i, sw.A, sw.B)
			}
		}
		if next != p.NRaw() {
			t.Errorf("W=%d layout ends at %d, want %d", p.W, next, p.NRaw())
		}
		if nPair != 6*p.W {
			t.Errorf("W=%d: %d sb pairs, want %d", p.W, nPair, 6*p.W)
		}
		if nCross != p.NCross() {
			t.Errorf("W=%d: %d cross, want %d", p.W, nCross, p.NCross())
		}
		if nTee != p.NTee() {
			t.Errorf("W=%d: %d tee, want %d", p.W, nTee, p.NTee())
		}
	}
}

// TestSwitchBoxPairsPerTrack checks that each track's switch point joins
// exactly the four incident wires pairwise.
func TestSwitchBoxPairsPerTrack(t *testing.T) {
	p := PaperExample()
	for tr := 0; tr < p.W; tr++ {
		ends := []Cond{p.CondInW(tr), p.CondInS(tr), p.CondHW(tr), p.CondVW(tr)}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				if switchBetween(p, ends[i], ends[j]) < 0 {
					t.Errorf("track %d: no switch between %s and %s",
						tr, p.CondName(ends[i]), p.CondName(ends[j]))
				}
			}
		}
		// No cross-track switch-box connections (disjoint topology).
		if tr+1 < p.W {
			if switchBetween(p, p.CondInW(tr), p.CondHW(tr+1)) >= 0 {
				t.Errorf("track %d connects to track %d through switch box", tr, tr+1)
			}
		}
	}
}

// TestPinJunctions checks pin-to-channel assignment: ChanX pins reach
// every HW track, ChanY pins every VW track, and never the converse.
func TestPinJunctions(t *testing.T) {
	p := PaperExample()
	if got := p.PinsOnChanX(); got != 4 {
		t.Fatalf("PinsOnChanX = %d, want 4", got)
	}
	for pin := 0; pin < p.L(); pin++ {
		pw := p.CondPin(pin)
		for tr := 0; tr < p.W; tr++ {
			onX := switchBetween(p, pw, p.CondHW(tr)) >= 0
			onY := switchBetween(p, pw, p.CondVW(tr)) >= 0
			if p.PinChannelIsX(pin) && (!onX || onY) {
				t.Errorf("pin %d track %d: ChanX pin has onX=%v onY=%v", pin, tr, onX, onY)
			}
			if !p.PinChannelIsX(pin) && (onX || !onY) {
				t.Errorf("pin %d track %d: ChanY pin has onX=%v onY=%v", pin, tr, onX, onY)
			}
		}
	}
}

func TestAdjacencyConsistent(t *testing.T) {
	p := Default()
	sws := p.Switches()
	degree := make(map[Cond]int)
	for _, sw := range sws {
		degree[sw.A]++
		degree[sw.B]++
	}
	for c := 0; c < p.NumConds(); c++ {
		adj := p.Adjacency(Cond(c))
		if len(adj) != degree[Cond(c)] {
			t.Errorf("cond %s: adjacency %d, want %d", p.CondName(Cond(c)), len(adj), degree[Cond(c)])
		}
		for _, n := range adj {
			sw := sws[n.Switch]
			if sw.A != Cond(c) && sw.B != Cond(c) {
				t.Errorf("cond %d adjacency references foreign switch %d", c, n.Switch)
			}
			if n.Cond == Cond(c) {
				t.Errorf("cond %d has self-loop", c)
			}
		}
	}
}

func TestOutputAndInputPins(t *testing.T) {
	p := Default()
	if p.OutputPin() != 0 {
		t.Error("output pin should be 0")
	}
	for i := 0; i < p.K; i++ {
		if p.InputPin(i) != i+1 {
			t.Errorf("InputPin(%d) = %d", i, p.InputPin(i))
		}
	}
}

func TestMacroConfigLogic(t *testing.T) {
	p := PaperExample()
	m := NewMacroConfig(p)
	logic := bits.NewVec(p.NLB())
	logic.Set(0, true)
	logic.Set(63, true)
	logic.Set(64, true) // FF enable
	m.SetLogic(logic)
	got := m.Logic()
	if !got.Equal(logic) {
		t.Errorf("Logic round-trip failed: %s", got)
	}
	// Logic bits must land in [0, NLB) only.
	for i := p.NLB(); i < p.NRaw(); i++ {
		if m.Vec().Get(i) {
			t.Fatalf("logic write leaked into switch bit %d", i)
		}
	}
}

func TestMacroConfigSwitches(t *testing.T) {
	p := PaperExample()
	m := NewMacroConfig(p)
	for i, sw := range p.Switches() {
		if m.SwitchOn(i) {
			t.Fatalf("switch %d on in zero config", i)
		}
		m.SetSwitch(i, true)
		if !m.SwitchOn(i) {
			t.Fatalf("switch %d did not turn on", i)
		}
		// All the switch's raw bits must be driven.
		for b := 0; b < sw.NumBits; b++ {
			if !m.Vec().Get(sw.FirstBit + b) {
				t.Fatalf("switch %d bit %d not set", i, b)
			}
		}
		m.SetSwitch(i, false)
		if m.SwitchOn(i) {
			t.Fatalf("switch %d did not turn off", i)
		}
	}
	if m.Vec().OnesCount() != 0 {
		t.Error("config not clean after toggling all switches")
	}
}

func TestMacroConfigOnSwitches(t *testing.T) {
	p := PaperExample()
	m := NewMacroConfig(p)
	m.SetSwitch(3, true)
	m.SetSwitch(17, true)
	var on []int
	for i := range p.Switches() {
		if m.SwitchOn(i) {
			on = append(on, i)
		}
	}
	if len(on) != 2 || on[0] != 3 || on[1] != 17 {
		t.Errorf("switches on = %v, want [3 17]", on)
	}
}

func TestRoutingBitsRoundTrip(t *testing.T) {
	p := PaperExample()
	m := NewMacroConfig(p)
	m.SetSwitch(0, true)
	m.SetSwitch(10, true)
	payload := m.RoutingBits()
	if payload.Len() != p.NRaw()-p.NLB() {
		t.Fatalf("payload %d bits", payload.Len())
	}
	// The decoder installs a raw-fallback payload by OR-ing it in
	// behind the logic bits.
	m2 := NewMacroConfig(p)
	m2.Vec().OrAt(payload, p.NLB())
	if !m2.Vec().Equal(m.Vec()) {
		t.Error("routing payload round-trip mismatch")
	}
}

func TestMacroConfigFromVec(t *testing.T) {
	p := PaperExample()
	if _, err := MacroConfigFromVec(p, bits.NewVec(p.NRaw()-1)); err == nil {
		t.Error("wrong-size vec should fail")
	}
	v := bits.NewVec(p.NRaw())
	m, err := MacroConfigFromVec(p, v)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSwitch(0, true)
	if v.OnesCount() == 0 {
		t.Error("wrapper should alias the vector")
	}
}

// refCondUsed is the adjacency walk CondUsed replaced: conductor c is
// used when any switch touching it reads on.
func refCondUsed(m *MacroConfig, c Cond) bool {
	for _, nb := range m.g.p.Adjacency(c) {
		if m.SwitchOn(nb.Switch) {
			return true
		}
	}
	return false
}

// TestCondUsedMatchesAdjacencyWalk: over random configurations — sparse
// and dense, set switch by switch and raw bit by raw bit (a junction
// reads on with any one of its bits set) — the masked CondUsed agrees
// with the adjacency walk on every conductor, and KindUsed is the OR
// over the conductors of that kind. Logic bits alone use nothing.
func TestCondUsedMatchesAdjacencyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range []Params{Default(), PaperExample()} {
		for trial := 0; trial < 200; trial++ {
			m := NewMacroConfig(p)
			for i := 0; i < p.NLB(); i++ {
				m.Vec().Set(i, rng.Intn(2) == 0)
			}
			switch density := trial % 4; density {
			case 0: // logic only
			case 1: // a handful of whole switches
				for n := rng.Intn(6) + 1; n > 0; n-- {
					m.SetSwitch(rng.Intn(len(p.Switches())), true)
				}
			case 2: // a handful of single raw routing bits
				for n := rng.Intn(6) + 1; n > 0; n-- {
					m.Vec().Set(p.NLB()+rng.Intn(p.NRaw()-p.NLB()), true)
				}
			default: // dense
				for i := p.NLB(); i < p.NRaw(); i++ {
					m.Vec().Set(i, rng.Intn(3) == 0)
				}
			}
			var kindWant [KindPin + 1]bool
			for c := Cond(0); int(c) < p.NumConds(); c++ {
				want := refCondUsed(m, c)
				if got := m.CondUsed(c); got != want {
					t.Fatalf("%v trial %d: CondUsed(%s) = %v, adjacency walk = %v",
						p, trial, p.CondName(c), got, want)
				}
				k, _ := p.CondInfo(c)
				kindWant[k] = kindWant[k] || want
			}
			for k, want := range kindWant {
				if got := m.KindUsed(CondKind(k)); got != want {
					t.Fatalf("%v trial %d: KindUsed(%v) = %v, OR over conductors = %v",
						p, trial, CondKind(k), got, want)
				}
			}
			// A clone and a wrapped vector answer like the original.
			wrapped, err := MacroConfigFromVec(p, m.Vec())
			if err != nil {
				t.Fatal(err)
			}
			c := Cond(rng.Intn(p.NumConds()))
			if m.Clone().CondUsed(c) != m.CondUsed(c) || wrapped.CondUsed(c) != m.CondUsed(c) {
				t.Fatalf("%v trial %d: Clone/FromVec disagree on CondUsed(%s)", p, trial, p.CondName(c))
			}
		}
	}
}

func TestCondWire(t *testing.T) {
	p := PaperExample()
	for tr := 0; tr < p.W; tr++ {
		for k, want := range map[CondKind]Cond{
			KindHW: p.CondHW(tr), KindVW: p.CondVW(tr), KindInW: p.CondInW(tr), KindInS: p.CondInS(tr),
		} {
			if got := p.CondWire(k, tr); got != want {
				t.Errorf("CondWire(%v, %d) = %d, want %d", k, tr, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CondWire(KindPin) should panic")
		}
	}()
	p.CondWire(KindPin, 0)
}

func TestSwitchKindString(t *testing.T) {
	if SwitchBoxPair.String() != "sb" || CrossJunction.String() != "cross" || TeeJunction.String() != "tee" {
		t.Error("SwitchKind.String mismatch")
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := Params{W: 20, K: 6}
		g := p.buildGraph()
		if len(g.switches) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// switchBetween returns the index of the switch joining a and b, or -1
// if the two conductors are not directly connected.
func switchBetween(p Params, a, b Cond) int {
	for _, n := range p.Adjacency(a) {
		if n.Cond == b {
			return n.Switch
		}
	}
	return -1
}
