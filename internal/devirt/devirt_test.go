package devirt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
)

func region1(t *testing.T) Region {
	t.Helper()
	r := Region{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func region2(t *testing.T) Region {
	t.Helper()
	r := Region{P: arch.PaperExample(), Nominal: 2, CW: 2, CH: 2}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegionValidate(t *testing.T) {
	bad := []Region{
		{P: arch.PaperExample(), Nominal: 0, CW: 1, CH: 1},
		{P: arch.PaperExample(), Nominal: 2, CW: 3, CH: 2},
		{P: arch.PaperExample(), Nominal: 2, CW: 0, CH: 2},
		{P: arch.Params{}, Nominal: 1, CW: 1, CH: 1},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestMacroCodeSpaceMatchesArch pins the c=1 I/O code layout to the
// macro-level layout of the arch package: the VBS format's code space
// must be identical at the finest granularity.
func TestMacroCodeSpaceMatchesArch(t *testing.T) {
	r := region1(t)
	p := r.P
	if r.NumIOCodes() != p.NumIOCodes() {
		t.Fatalf("code space %d != arch %d", r.NumIOCodes(), p.NumIOCodes())
	}
	if m := bits.CeilLog2(p.NumIOCodes()); r.MBits() != m {
		t.Fatalf("M %d != arch %d", r.MBits(), m)
	}
	for tr := 0; tr < p.W; tr++ {
		if IOCode(p.CodeForSide(arch.West, tr)) != r.CodeWest(0, tr) {
			t.Errorf("west code %d mismatch", tr)
		}
		if IOCode(p.CodeForSide(arch.South, tr)) != r.CodeSouth(0, tr) {
			t.Errorf("south code %d mismatch", tr)
		}
		if IOCode(p.CodeForSide(arch.East, tr)) != r.CodeEast(0, tr) {
			t.Errorf("east code %d mismatch", tr)
		}
		if IOCode(p.CodeForSide(arch.North, tr)) != r.CodeNorth(0, tr) {
			t.Errorf("north code %d mismatch", tr)
		}
	}
	for pin := 0; pin < p.L(); pin++ {
		if IOCode(p.CodeForPin(pin)) != r.CodePin(0, 0, pin) {
			t.Errorf("pin code %d mismatch", pin)
		}
	}
}

// TestClusterCodeSpaceSize checks the paper's cluster code space
// formula 4Wc + c²L + 1.
func TestClusterCodeSpaceSize(t *testing.T) {
	p := arch.Default() // W=20, L=7
	for _, c := range []int{1, 2, 3, 4, 6} {
		r := Region{P: p, Nominal: c, CW: c, CH: c}
		want := 4*20*c + c*c*7 + 1
		if r.NumIOCodes() != want {
			t.Errorf("c=%d: code space %d, want %d", c, r.NumIOCodes(), want)
		}
	}
}

func TestCodeRoundTripMacro(t *testing.T) {
	r := region1(t)
	for code := 1; code < r.NumIOCodes(); code++ {
		cond, err := r.CondForCode(IOCode(code))
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		back := r.CodeForCond(cond)
		if back != IOCode(code) {
			t.Errorf("code %d -> cond %d -> code %d", code, cond, back)
		}
	}
}

func TestCodeRoundTripCluster(t *testing.T) {
	r := region2(t)
	for code := 1; code < r.NumIOCodes(); code++ {
		cond, err := r.CondForCode(IOCode(code))
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		back := r.CodeForCond(cond)
		if back != IOCode(code) {
			t.Errorf("code %d -> cond %d -> code %d", code, cond, back)
		}
	}
}

// TestInteriorWiresHaveNoCode: in a 2x2 cluster the horizontal wires of
// column 0 and vertical wires of row 0 are interior and must map to
// the null code.
func TestInteriorWiresHaveNoCode(t *testing.T) {
	r := region2(t)
	for tr := 0; tr < r.P.W; tr++ {
		if got := r.CodeForCond(r.condHW(0, 0, tr)); got != 0 {
			t.Errorf("interior HW(0,0,%d) has code %d", tr, got)
		}
		if got := r.CodeForCond(r.condVW(0, 0, tr)); got != 0 {
			t.Errorf("interior VW(0,0,%d) has code %d", tr, got)
		}
		if got := r.CodeForCond(r.condHW(1, 0, tr)); got == 0 {
			t.Errorf("east HW(1,0,%d) should have a code", tr)
		}
	}
}

// TestTruncatedRegionRejectsOutsideCodes: a 1x2 region (task edge) must
// reject codes that name the missing column.
func TestTruncatedRegionRejectsOutsideCodes(t *testing.T) {
	r := Region{P: arch.PaperExample(), Nominal: 2, CW: 1, CH: 2}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// South of column 1 does not exist.
	if _, err := r.CondForCode(r.CodeSouth(1, 0)); err == nil {
		t.Error("south column 1 should be rejected")
	}
	// South of column 0 exists.
	if _, err := r.CondForCode(r.CodeSouth(0, 0)); err != nil {
		t.Errorf("south column 0: %v", err)
	}
	// Pin of member (1,0) does not exist.
	if _, err := r.CondForCode(r.CodePin(1, 0, 0)); err == nil {
		t.Error("pin of missing member should be rejected")
	}
	// Pin of member (0,1) exists.
	if _, err := r.CondForCode(r.CodePin(0, 1, 0)); err != nil {
		t.Errorf("pin of member (0,1): %v", err)
	}
}

func TestCondForCodeRange(t *testing.T) {
	r := region1(t)
	if _, err := r.CondForCode(0); err == nil {
		t.Error("null code should error in CondForCode")
	}
	if _, err := r.CondForCode(IOCode(r.NumIOCodes())); err == nil {
		t.Error("out-of-range code should error")
	}
}

// macroConnected checks electrical connectivity of two local
// conductors in a decoded single-macro config: b is reachable from a
// through switches that are on.
func macroConnected(p arch.Params, cfg *arch.MacroConfig, a, b arch.Cond) bool {
	seen := map[arch.Cond]bool{a: true}
	for stack := []arch.Cond{a}; len(stack) > 0; {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c == b {
			return true
		}
		for _, nb := range p.Adjacency(c) {
			if cfg.SwitchOn(nb.Switch) && !seen[nb.Cond] {
				seen[nb.Cond] = true
				stack = append(stack, nb.Cond)
			}
		}
	}
	return false
}

// onSwitches lists the switches of cfg that are on, in canonical order.
func onSwitches(p arch.Params, cfg *arch.MacroConfig) []int {
	var on []int
	for i := range p.Switches() {
		if cfg.SwitchOn(i) {
			on = append(on, i)
		}
	}
	return on
}

func TestRouteStraightThrough(t *testing.T) {
	r := region1(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	cfg := rt.Configs()[0]
	if !macroConnected(r.P, cfg, r.P.CondInW(3), r.P.CondHW(3)) {
		t.Error("west 3 not connected to east 3")
	}
	// Exactly one switch should be on: the (InW,HW) pair of track 3.
	on := onSwitches(r.P, cfg)
	if len(on) != 1 {
		t.Fatalf("%d switches on, want 1", len(on))
	}
	sw := r.P.Switches()[on[0]]
	if !(sw.A == r.P.CondHW(3) && sw.B == r.P.CondInW(3)) &&
		!(sw.B == r.P.CondHW(3) && sw.A == r.P.CondInW(3)) {
		t.Errorf("wrong switch on: %s-%s", r.P.CondName(sw.A), r.P.CondName(sw.B))
	}
}

func TestRouteToPin(t *testing.T) {
	r := region1(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Pin 1 is a ChanX input pin: route from the west side.
	if err := rt.RouteConnection(r.CodeWest(0, 2), r.CodePin(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := rt.Configs()[0]
	if !macroConnected(r.P, cfg, r.P.CondInW(2), r.P.CondPin(1)) {
		t.Error("west 2 not connected to pin 1")
	}
	// Pin 5 is a ChanY pin: route from the south side.
	if err := rt.RouteConnection(r.CodeSouth(0, 4), r.CodePin(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if !macroConnected(r.P, cfg, r.P.CondInS(4), r.P.CondPin(5)) {
		t.Error("south 4 not connected to pin 5")
	}
}

func TestRouteCrossingTracksShareSwitchPoint(t *testing.T) {
	// A horizontal route and a vertical route on the same track index
	// use different pairwise switches of one switch point and must both
	// succeed without shorting.
	r := region1(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeSouth(0, 3), r.CodeNorth(0, 3)); err != nil {
		t.Fatal(err)
	}
	cfg := rt.Configs()[0]
	if !macroConnected(r.P, cfg, r.P.CondInW(3), r.P.CondHW(3)) ||
		!macroConnected(r.P, cfg, r.P.CondInS(3), r.P.CondVW(3)) {
		t.Error("routes broken")
	}
	if macroConnected(r.P, cfg, r.P.CondInW(3), r.P.CondInS(3)) {
		t.Error("horizontal and vertical routes are shorted")
	}
}

func TestRouteConflictDetected(t *testing.T) {
	r := region1(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	// A different net claiming east 3 must fail.
	if err := rt.RouteConnection(r.CodeSouth(0, 1), r.CodeEast(0, 3)); err == nil {
		t.Error("claiming an owned endpoint should fail")
	}
}

func TestRouteNetExtension(t *testing.T) {
	r := region1(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// (W3 -> E3) then (E3 -> N3): the second pair extends net 0.
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeEast(0, 3), r.CodeNorth(0, 3)); err != nil {
		t.Fatal(err)
	}
	cfg := rt.Configs()[0]
	if !macroConnected(r.P, cfg, r.P.CondInW(3), r.P.CondVW(3)) {
		t.Error("extended net not fully connected")
	}
	oin, err := rt.Owner(r.CodeWest(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	oN, err := rt.Owner(r.CodeNorth(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if oin != oN || oin < 0 {
		t.Errorf("owners differ: %d vs %d", oin, oN)
	}
}

func TestRouteIdempotentPair(t *testing.T) {
	r := region1(t)
	rt, _ := NewRouter(r, false, false)
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	before := rt.Configs()[0].Vec().Clone()
	// Same pair again: endpoints already share a net, no-op.
	if err := rt.RouteConnection(r.CodeWest(0, 3), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	if !rt.Configs()[0].Vec().Equal(before) {
		t.Error("idempotent pair changed the configuration")
	}
}

func TestRouteTrackChangeViaPin(t *testing.T) {
	// West track 1 to east track 2 requires a route-through input pin.
	r := region1(t)
	rt, _ := NewRouter(r, false, false)
	if err := rt.RouteConnection(r.CodeWest(0, 1), r.CodeEast(0, 2)); err != nil {
		t.Fatal(err)
	}
	cfg := rt.Configs()[0]
	if !macroConnected(r.P, cfg, r.P.CondInW(1), r.P.CondHW(2)) {
		t.Error("track change failed")
	}
	// The output pin must not be used as the route-through.
	if macroConnected(r.P, cfg, r.P.CondPin(0), r.P.CondInW(1)) {
		t.Error("output pin used as route-through")
	}
}

func TestClosedEdges(t *testing.T) {
	r := region1(t)
	rt, err := NewRouter(r, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeWest(0, 0), r.CodeEast(0, 0)); err == nil {
		t.Error("west endpoint on closed edge should fail")
	}
	if err := rt.RouteConnection(r.CodeSouth(0, 0), r.CodeNorth(0, 0)); err == nil {
		t.Error("south endpoint on closed edge should fail")
	}
	// East/north still fine.
	if err := rt.RouteConnection(r.CodeEast(0, 0), r.CodeNorth(0, 0)); err != nil {
		t.Errorf("east-north route should work: %v", err)
	}
}

func TestClusterRouteAcrossMembers(t *testing.T) {
	r := region2(t)
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// West row 0 track 2 to east row 0 track 2: crosses both members
	// of row 0 through the interior wire.
	if err := rt.RouteConnection(r.CodeWest(0, 2), r.CodeEast(0, 2)); err != nil {
		t.Fatal(err)
	}
	c00 := rt.Configs()[0] // member (0,0)
	c10 := rt.Configs()[1] // member (1,0)
	if c00.Vec().OnesCount() == 0 || c10.Vec().OnesCount() == 0 {
		t.Error("route should use switches in both members")
	}
	// Members (0,1) and (1,1) stay untouched.
	if rt.Configs()[2].Vec().OnesCount() != 0 || rt.Configs()[3].Vec().OnesCount() != 0 {
		t.Error("unrelated members configured")
	}
}

func TestClusterPinToPin(t *testing.T) {
	r := region2(t)
	rt, _ := NewRouter(r, false, false)
	// Output pin of member (0,0) to an input pin of member (1,1):
	// a fully internal net, the clustering win of Section IV-B.
	if err := rt.RouteConnection(r.CodePin(0, 0, 0), r.CodePin(1, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// No boundary wire may be claimed for this internal net unless
	// required; check at least that the route exists and the members'
	// switches are on.
	total := 0
	for _, c := range rt.Configs() {
		total += len(onSwitches(r.P, c))
	}
	if total == 0 {
		t.Error("no switches turned on")
	}
}

func TestRouterDeterministic(t *testing.T) {
	r := region2(t)
	run := func() []*arch.MacroConfig {
		rt, _ := NewRouter(r, false, false)
		pairs := [][2]IOCode{
			{r.CodeWest(0, 2), r.CodeEast(0, 2)},
			{r.CodePin(0, 0, 0), r.CodePin(1, 1, 2)},
			{r.CodeSouth(1, 4), r.CodeNorth(1, 4)},
			{r.CodeWest(1, 0), r.CodePin(0, 1, 3)},
		}
		for _, p := range pairs {
			if err := rt.RouteConnection(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Configs()
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Vec().Equal(b[i].Vec()) {
			t.Fatalf("member %d differs between identical runs", i)
		}
	}
}

func TestRouterReset(t *testing.T) {
	r := region1(t)
	rt, _ := NewRouter(r, false, false)
	if err := rt.RouteConnection(r.CodeWest(0, 0), r.CodeEast(0, 0)); err != nil {
		t.Fatal(err)
	}
	rt.Reset()
	if rt.Configs()[0].Vec().OnesCount() != 0 {
		t.Error("Reset left switches on")
	}
	if o, _ := rt.Owner(r.CodeWest(0, 0)); o != -1 {
		t.Error("Reset left owners")
	}
	// Router is reusable after reset.
	if err := rt.RouteConnection(r.CodeWest(0, 0), r.CodeEast(0, 0)); err != nil {
		t.Error(err)
	}
}

func TestRouterRejectsBadRegion(t *testing.T) {
	if _, err := NewRouter(Region{}, false, false); err == nil {
		t.Error("invalid region accepted")
	}
}

func BenchmarkRouteMacro(b *testing.B) {
	r := Region{P: arch.Default(), Nominal: 1, CW: 1, CH: 1}
	rt, err := NewRouter(r, false, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Reset()
		for tr := 0; tr < 8; tr++ {
			if err := rt.RouteConnection(r.CodeWest(0, tr), r.CodeEast(0, tr)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRouteCluster4(b *testing.B) {
	r := Region{P: arch.Default(), Nominal: 4, CW: 4, CH: 4}
	rt, err := NewRouter(r, false, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Reset()
		for tr := 0; tr < 8; tr++ {
			if err := rt.RouteConnection(r.CodeWest(tr%4, tr), r.CodeEast(tr%4, tr)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestWarm(t *testing.T) {
	r := Region{P: arch.Default(), Nominal: 2, CW: 2, CH: 1}
	if err := Warm(r); err != nil {
		t.Fatal(err)
	}
	// Idempotent, and the warmed graph must be the one routers use.
	if err := Warm(r); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(r, false, false); err != nil {
		t.Fatal(err)
	}
	if err := Warm(Region{Nominal: 0}); err == nil {
		t.Error("invalid region warmed")
	}
}
