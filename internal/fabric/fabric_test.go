package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
)

func newFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(arch.PaperExample(), arch.Grid{Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(arch.Params{}, arch.Grid{Width: 2, Height: 2}); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := New(arch.PaperExample(), arch.Grid{}); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestAllocateReleaseCycle(t *testing.T) {
	f := newFabric(t)
	if f.FreeMacros() != 64 {
		t.Fatalf("FreeMacros = %d", f.FreeMacros())
	}
	if err := f.Allocate(1, 1, 1, 3, 3); err != nil {
		t.Fatal(err)
	}
	if f.FreeMacros() != 64-9 {
		t.Errorf("FreeMacros = %d after alloc", f.FreeMacros())
	}
	if f.OwnerAt(2, 2) != 1 || f.OwnerAt(0, 0) != NoTask {
		t.Error("ownership wrong")
	}
	// Overlap rejected.
	if err := f.Allocate(2, 3, 3, 2, 2); err == nil {
		t.Error("overlapping allocation accepted")
	}
	// Disjoint fine.
	if err := f.Allocate(2, 4, 4, 2, 2); err != nil {
		t.Fatal(err)
	}
	if n := f.Release(1); n != 9 {
		t.Errorf("released %d macros, want 9", n)
	}
	if f.OwnerAt(2, 2) != NoTask {
		t.Error("release did not clear ownership")
	}
}

func TestReleaseClearsConfiguration(t *testing.T) {
	f := newFabric(t)
	if err := f.Allocate(1, 0, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	f.Config().At(1, 1).SetSwitch(0, true)
	f.Release(1)
	if f.Config().At(1, 1).Vec().OnesCount() != 0 {
		t.Error("release left configuration bits")
	}
}

// TestReleaseLeavesNeighbourUntouched: Release walks the rectangle
// recorded at Allocate, so a same-sized neighbour sharing an edge with
// the released task keeps every owner entry and every configuration
// bit, the count returned is the rectangle's, and the id can allocate
// again only once it has let go.
func TestReleaseLeavesNeighbourUntouched(t *testing.T) {
	f := newFabric(t)
	rng := rand.New(rand.NewSource(5))
	for id, x0 := range map[TaskID]int{1: 1, 2: 4} { // 3x2 each, abutting at x=4
		if err := f.Allocate(id, x0, 2, 3, 2); err != nil {
			t.Fatal(err)
		}
		for y := 2; y < 4; y++ {
			for x := x0; x < x0+3; x++ {
				f.Config().At(x, y).Vec().Or(randomMacro(rng, f.Params()).Vec())
			}
		}
	}
	if err := f.Allocate(1, 0, 6, 1, 1); err == nil {
		t.Fatal("second rectangle for a task that still holds one accepted")
	}
	neighbour := f.Config().Clone()
	if n := f.Release(1); n != 6 {
		t.Fatalf("Release freed %d macros, want 6", n)
	}
	g := f.Grid()
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			in2 := x >= 4 && x < 7 && y >= 2 && y < 4
			if want := map[bool]TaskID{true: 2, false: NoTask}[in2]; f.OwnerAt(x, y) != want {
				t.Errorf("owner at (%d,%d) = %d, want %d", x, y, f.OwnerAt(x, y), want)
			}
			switch cfg := f.Config().At(x, y).Vec(); {
			case in2 && !cfg.Equal(neighbour.At(x, y).Vec()):
				t.Errorf("neighbour's macro (%d,%d) changed", x, y)
			case !in2 && cfg.OnesCount() != 0:
				t.Errorf("released macro (%d,%d) keeps configuration bits", x, y)
			}
		}
	}
	if f.FreeMacros() != recountFree(f) || f.Release(1) != 0 {
		t.Error("free counter off, or a second Release freed something")
	}
	if err := f.Allocate(1, 0, 6, 1, 1); err != nil {
		t.Errorf("released task cannot allocate again: %v", err)
	}
}

func TestAllocateBounds(t *testing.T) {
	f := newFabric(t)
	cases := [][4]int{{-1, 0, 2, 2}, {0, -1, 2, 2}, {7, 0, 2, 2}, {0, 7, 1, 2}, {0, 0, 0, 1}, {0, 0, 9, 1}}
	for _, c := range cases {
		if err := f.Allocate(1, c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("rect %v accepted", c)
		}
	}
	if err := f.Allocate(NoTask, 0, 0, 1, 1); err == nil {
		t.Error("NoTask id accepted")
	}
}

// TestSeamConflicts: two abutting tasks driving the same boundary wire
// must be reported; independent wires must not.
func TestSeamConflicts(t *testing.T) {
	f := newFabric(t)
	p := f.Params()
	if err := f.Allocate(1, 0, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Allocate(2, 2, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Task 1's east column macro (1,0): drive HW(3) via the SB pair
	// (InS, HW)... use pin junction instead to avoid needing InS.
	cfgA := f.Config().At(1, 0)
	swA := switchBetween(p, p.CondPin(1), p.CondHW(3))
	cfgA.SetSwitch(swA, true)
	// No conflict yet: task 2 does not touch its InW(3).
	if cs := f.SeamConflicts(0, 0, 2, 2); len(cs) != 0 {
		t.Fatalf("unexpected conflicts: %v", cs)
	}
	// Task 2's west column macro (2,0): connect InW(3) to its HW(3).
	cfgB := f.Config().At(2, 0)
	swB := switchBetween(p, p.CondInW(3), p.CondHW(3))
	cfgB.SetSwitch(swB, true)
	cs := f.SeamConflicts(0, 0, 2, 2)
	if len(cs) != 1 {
		t.Fatalf("conflicts = %v, want 1", cs)
	}
	if !strings.Contains(cs[0], "tasks 1 and 2") {
		t.Errorf("conflict message %q", cs[0])
	}
	// The same check seen from task 2's rectangle (west seam).
	cs = f.SeamConflicts(2, 0, 2, 2)
	if len(cs) != 1 {
		t.Errorf("west seam conflicts = %v", cs)
	}
}

func TestSeamNoConflictSameTask(t *testing.T) {
	f := newFabric(t)
	p := f.Params()
	if err := f.Allocate(1, 0, 0, 4, 2); err != nil {
		t.Fatal(err)
	}
	// Wire used across an internal boundary of one task: no conflict.
	f.Config().At(1, 0).SetSwitch(switchBetween(p, p.CondPin(1), p.CondHW(3)), true)
	f.Config().At(2, 0).SetSwitch(switchBetween(p, p.CondInW(3), p.CondHW(3)), true)
	if cs := f.SeamConflicts(0, 0, 2, 2); len(cs) != 0 {
		t.Errorf("conflicts within one task: %v", cs)
	}
}

func TestSeamVertical(t *testing.T) {
	f := newFabric(t)
	p := f.Params()
	if err := f.Allocate(1, 0, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Allocate(2, 0, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Task 1 drives VW(4) of macro (0,1); task 2 connects InS(4) at (0,2).
	f.Config().At(0, 1).SetSwitch(switchBetween(p, p.CondPin(5), p.CondVW(4)), true)
	f.Config().At(0, 2).SetSwitch(switchBetween(p, p.CondInS(4), p.CondVW(4)), true)
	if cs := f.SeamConflicts(0, 0, 2, 2); len(cs) != 1 {
		t.Errorf("north seam conflicts = %v", cs)
	}
	if cs := f.SeamConflicts(0, 2, 2, 2); len(cs) != 1 {
		t.Errorf("south seam conflicts = %v", cs)
	}
}

func TestOccupancyHelpers(t *testing.T) {
	f := newFabric(t)
	if f.UsedMacros() != 0 {
		t.Fatal("blank fabric reports ownership")
	}
	if err := f.Allocate(3, 0, 0, 4, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Allocate(1, 4, 4, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got := f.UsedMacros(); got != 12 {
		t.Errorf("UsedMacros = %d", got)
	}
	f.Release(3)
	if got := f.UsedMacros(); got != 4 {
		t.Errorf("UsedMacros after release = %d", got)
	}
}

func TestCheckRect(t *testing.T) {
	f := newFabric(t)
	if err := f.Allocate(1, 2, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !f.FitsRect(0, 0, 2, 2, NoTask) {
		t.Error("free rect rejected")
	}
	if f.FitsRect(1, 1, 2, 2, NoTask) {
		t.Error("overlapping rect accepted")
	}
	// The overlap is with task 1 itself: admissible for a relocation.
	if !f.FitsRect(1, 1, 2, 2, 1) {
		t.Error("self-overlapping rect rejected")
	}
	if f.FitsRect(7, 7, 2, 2, NoTask) {
		t.Error("out-of-bounds rect accepted")
	}
	// FitsRect must not mutate ownership.
	if f.UsedMacros() != 4 {
		t.Errorf("UsedMacros = %d after queries", f.UsedMacros())
	}
}

// refCondUsed is the adjacency walk the masked arch.MacroConfig.CondUsed
// replaced, kept as the reference the seam scanners are compared with.
func refCondUsed(p arch.Params, cfg *arch.MacroConfig, c arch.Cond) bool {
	for _, nb := range p.Adjacency(c) {
		if cfg.SwitchOn(nb.Switch) {
			return true
		}
	}
	return false
}

// refSeams is the seam analysis as it was before the word-mask scan:
// every track of every boundary macro, each endpoint answered by the
// adjacency walk. insideCfg and skip select the live form (nil, nil:
// both endpoints from the plane, same-owner pairs skipped) or the
// dry-run form (inside endpoint from the candidate, pairs whose outside
// macro belongs to `as` skipped). interleave picks the dry-run visiting
// order (east/west per track, then north/south per track).
func refSeams(f *Fabric, as TaskID, x0, y0, w, h int, cfgAt func(dx, dy int) *arch.MacroConfig, interleave bool) []string {
	p := f.Params()
	var out []string
	check := func(ax, ay int, ac arch.Cond, bx, by int, bc arch.Cond) {
		if !f.Grid().Contains(ax, ay) || !f.Grid().Contains(bx, by) {
			return
		}
		ida, idb := f.OwnerAt(ax, ay), f.OwnerAt(bx, by)
		in := f.Config().At(ax, ay)
		if cfgAt != nil {
			ida = as
			in = cfgAt(ax-x0, ay-y0)
		}
		if ida == idb || in == nil {
			return
		}
		if refCondUsed(p, in, ac) && refCondUsed(p, f.Config().At(bx, by), bc) {
			out = append(out, fmt.Sprintf("wire %s of macro (%d,%d) contended by tasks %d and %d",
				p.CondName(ac), ax, ay, ida, idb))
		}
	}
	east := func(y, t int) { check(x0+w-1, y, p.CondHW(t), x0+w, y, p.CondInW(t)) }
	west := func(y, t int) { check(x0, y, p.CondInW(t), x0-1, y, p.CondHW(t)) }
	north := func(x, t int) { check(x, y0+h-1, p.CondVW(t), x, y0+h, p.CondInS(t)) }
	south := func(x, t int) { check(x, y0, p.CondInS(t), x, y0-1, p.CondVW(t)) }
	each := func(n0, n int, fns ...func(i, t int)) {
		if interleave {
			for i := n0; i < n0+n; i++ {
				for t := 0; t < p.W; t++ {
					for _, fn := range fns {
						fn(i, t)
					}
				}
			}
			return
		}
		for _, fn := range fns {
			for i := n0; i < n0+n; i++ {
				for t := 0; t < p.W; t++ {
					fn(i, t)
				}
			}
		}
	}
	each(y0, h, east, west)
	each(x0, w, north, south)
	return out
}

// randomMacro returns a configuration with a few switches on, biased
// towards the boundary wires seam analysis looks at; it sets single raw
// bits as often as whole switches, since a junction reads on with any
// one of its bits set.
func randomMacro(rng *rand.Rand, p arch.Params) *arch.MacroConfig {
	cfg := arch.NewMacroConfig(p)
	for n := rng.Intn(4); n > 0; n-- {
		c := arch.Cond(rng.Intn(4 * p.W)) // a channel wire
		adj := p.Adjacency(c)
		sw := p.Switches()[adj[rng.Intn(len(adj))].Switch]
		if rng.Intn(2) == 0 {
			cfg.Vec().Set(sw.FirstBit+rng.Intn(sw.NumBits), true)
		} else {
			cfg.Vec().Set(sw.FirstBit, true)
			cfg.Vec().Set(sw.FirstBit+sw.NumBits-1, true)
		}
	}
	return cfg
}

// randomScene allocates a few random neighbour tasks on a fresh fabric
// and fills every macro — owned or not, since the plane can be written
// behind the accounting's back — with a random configuration. Built
// twice from the same seed it yields identical fabrics.
func randomScene(t *testing.T, seed int64, p arch.Params, g arch.Grid) (*Fabric, []TaskID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	var ids []TaskID
	for id := TaskID(1); id <= 5; id++ {
		w, h := rng.Intn(3)+1, rng.Intn(3)+1
		if f.Allocate(id, rng.Intn(g.Width), rng.Intn(g.Height), w, h) == nil {
			ids = append(ids, id)
		}
	}
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			if f.OwnerAt(x, y) != NoTask || rng.Intn(6) == 0 {
				f.Config().At(x, y).Vec().Or(randomMacro(rng, p).Vec())
			}
		}
	}
	return f, ids
}

// candidateSeamConflicts lists every contended wire the dry-run seam
// analysis finds (HasCandidateSeamConflict stops at the first), worded
// as SeamConflicts words them.
func candidateSeamConflicts(f *Fabric, as TaskID, x0, y0, w, h int, cfgAt func(dx, dy int) *arch.MacroConfig) []string {
	var out []string
	f.scanCandidateSeams(as, x0, y0, w, h, cfgAt, func(ax, ay int, ac arch.Cond, idb TaskID) bool {
		out = append(out, f.conflictText(ac, ax, ay, as, idb))
		return false
	})
	return out
}

// TestCandidateSeamConflictsMatchesLive: the dry-run seam analysis must
// agree with SeamConflicts after actually writing the candidate — on
// three hand cases and on seeded random neighbours, candidates and
// positions, fabric edges and relocations (`as` = an id already on the
// fabric) included. Both scanners must also reproduce, string for
// string and in order, the per-track adjacency-walk analysis they
// replaced, and the allocation-free predicate must agree with the list.
func TestCandidateSeamConflictsMatchesLive(t *testing.T) {
	p := arch.PaperExample()
	g := arch.Grid{Width: 8, Height: 8}
	type scene struct {
		name   string
		build  func() *Fabric
		as     TaskID
		x0, y0 int
		w, h   int
		cfgAt  func(dx, dy int) *arch.MacroConfig
		// hand cases know their verdict; random ones only cross-check.
		hand, want bool
	}
	var scenes []scene

	// Hand cases: neighbour task 1 drives HW(3) of its east column macro
	// (1,0); the candidate's west column macro taps InW(3), so it
	// conflicts when placed directly east of the neighbour.
	handFabric := func() *Fabric {
		f := newFabric(t)
		if err := f.Allocate(1, 0, 0, 2, 2); err != nil {
			t.Fatal(err)
		}
		f.Config().At(1, 0).SetSwitch(switchBetween(p, p.CondPin(1), p.CondHW(3)), true)
		return f
	}
	conflicting := arch.NewMacroConfig(p)
	conflicting.SetSwitch(switchBetween(p, p.CondInW(3), p.CondHW(3)), true)
	quiet := arch.NewMacroConfig(p)
	handCfg := func(dx, dy int) *arch.MacroConfig {
		if dx == 0 && dy == 0 {
			return conflicting
		}
		return quiet
	}
	for _, tc := range []struct {
		name   string
		x0, y0 int
		want   bool
	}{{"abutting east", 2, 0, true}, {"one column away", 3, 0, false}, {"far corner", 4, 4, false}} {
		scenes = append(scenes, scene{tc.name, handFabric, 2, tc.x0, tc.y0, 2, 2, handCfg, true, tc.want})
	}

	// Seeded random cases.
	rng := rand.New(rand.NewSource(31))
	for n := 0; len(scenes) < 400 && n < 10000; n++ {
		seed := rng.Int63()
		f, ids := randomScene(t, seed, p, g)
		as := TaskID(9)
		if n%3 == 0 && len(ids) > 0 {
			as = ids[rng.Intn(len(ids))] // a relocation
		}
		w, h := rng.Intn(3)+1, rng.Intn(3)+1
		x0, y0 := rng.Intn(g.Width-w+1), rng.Intn(g.Height-h+1)
		switch n % 5 { // pin some candidates against a fabric edge
		case 0:
			x0 = g.Width - w
		case 1:
			y0 = 0
		}
		if !f.FitsRect(x0, y0, w, h, as) {
			continue
		}
		cfgs := make([]*arch.MacroConfig, w*h)
		for i := range cfgs {
			if rng.Intn(5) != 0 { // nil: a macro no entry configures
				cfgs[i] = randomMacro(rng, p)
			}
		}
		scenes = append(scenes, scene{
			name: fmt.Sprintf("random %d (task %d, %dx%d at %d,%d)", n, as, w, h, x0, y0),
			build: func() *Fabric {
				// Admission assumes the free macros it claims are blank
				// (Release leaves them so); only macros outside the
				// rectangle keep bits written behind the accounting.
				f, _ := randomScene(t, seed, p, g)
				for y := y0; y < y0+h; y++ {
					for x := x0; x < x0+w; x++ {
						if f.OwnerAt(x, y) == NoTask {
							f.Config().At(x, y).Vec().Clear()
						}
					}
				}
				return f
			},
			as: as, x0: x0, y0: y0, w: w, h: h,
			cfgAt: func(dx, dy int) *arch.MacroConfig { return cfgs[dy*w+dx] },
		})
	}
	if len(scenes) < 400 {
		t.Fatalf("only %d scenes generated", len(scenes))
	}

	conflictsSeen := 0
	for _, sc := range scenes {
		// Dry-run verdict; it must mutate neither ownership nor plane.
		fDry := sc.build()
		before := fDry.Config().Clone()
		usedBefore := fDry.UsedMacros()
		dry := candidateSeamConflicts(fDry, sc.as, sc.x0, sc.y0, sc.w, sc.h, sc.cfgAt)
		has := fDry.HasCandidateSeamConflict(sc.as, sc.x0, sc.y0, sc.w, sc.h, sc.cfgAt)
		if fDry.UsedMacros() != usedBefore || !fDry.Config().Equal(before) {
			t.Fatalf("%s: dry run mutated the fabric", sc.name)
		}
		if has != (len(dry) > 0) {
			t.Errorf("%s: HasCandidateSeamConflict = %v, list = %v", sc.name, has, dry)
		}
		if sc.hand && (len(dry) > 0) != sc.want {
			t.Errorf("%s: dry = %v, want conflict = %v", sc.name, dry, sc.want)
		}
		if want := refSeams(fDry, sc.as, sc.x0, sc.y0, sc.w, sc.h, sc.cfgAt, true); !reflect.DeepEqual(dry, want) {
			t.Errorf("%s: dry run differs from the per-track walk:\n got %v\nwant %v", sc.name, dry, want)
		}

		// Live verdict: release (a relocation clears the old region
		// first), allocate, write the same configs, analyze.
		fLive := sc.build()
		fLive.Release(sc.as)
		if err := fLive.Allocate(sc.as, sc.x0, sc.y0, sc.w, sc.h); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for dy := 0; dy < sc.h; dy++ {
			for dx := 0; dx < sc.w; dx++ {
				if cfg := sc.cfgAt(dx, dy); cfg != nil {
					fLive.Config().At(sc.x0+dx, sc.y0+dy).Vec().Or(cfg.Vec())
				}
			}
		}
		live := fLive.SeamConflicts(sc.x0, sc.y0, sc.w, sc.h)
		if want := refSeams(fLive, NoTask, sc.x0, sc.y0, sc.w, sc.h, nil, false); !reflect.DeepEqual(live, want) {
			t.Errorf("%s: live scan differs from the per-track walk:\n got %v\nwant %v", sc.name, live, want)
		}

		// The two scanners visit the seams in different orders.
		sortedDry, sortedLive := append([]string(nil), dry...), append([]string(nil), live...)
		sort.Strings(sortedDry)
		sort.Strings(sortedLive)
		if !reflect.DeepEqual(sortedDry, sortedLive) {
			t.Errorf("%s: dry = %v, live = %v", sc.name, sortedDry, sortedLive)
		}
		if len(dry) > 0 {
			conflictsSeen++
		}
	}
	// The generator must exercise both verdicts for the test to mean much.
	if conflictsSeen < 40 || conflictsSeen > len(scenes)-40 {
		t.Errorf("%d of %d scenes conflict; generator is lopsided", conflictsSeen, len(scenes))
	}
}

// TestCandidateSeamConflictsSkipsSelf: for a relocation, seams against
// the task's own soon-to-be-released region must not count.
func TestCandidateSeamConflictsSkipsSelf(t *testing.T) {
	p := arch.PaperExample()
	f, err := New(p, arch.Grid{Width: 8, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Task 1 at (2,0) drives its east HW(0) and taps InW(0): moving it
	// one macro west overlaps nothing but abuts its own stale region.
	if err := f.Allocate(1, 2, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	f.Config().At(2, 0).SetSwitch(switchBetween(p, p.CondPin(1), p.CondHW(0)), true)
	f.Config().At(2, 0).SetSwitch(switchBetween(p, p.CondInW(0), p.CondHW(0)), true)
	cfg := f.Config().At(2, 0).Clone()
	cfgAt := func(dx, dy int) *arch.MacroConfig { return cfg }
	if cs := candidateSeamConflicts(f, 1, 1, 0, 1, 1, cfgAt); len(cs) != 0 {
		t.Errorf("self seam reported for relocation: %v", cs)
	}
	// The same candidate from a different task would conflict.
	if cs := candidateSeamConflicts(f, 2, 1, 0, 1, 1, cfgAt); len(cs) == 0 {
		t.Error("real seam conflict missed")
	}
}

// recountFree counts unowned macros the slow way, macro by macro.
func recountFree(f *Fabric) int {
	n := 0
	for y := 0; y < f.Grid().Height; y++ {
		for x := 0; x < f.Grid().Width; x++ {
			if f.OwnerAt(x, y) == NoTask {
				n++
			}
		}
	}
	return n
}

// TestFreeCounterMatchesRecount: over a random sequence of allocations
// (many refused: out of bounds, overlapping, bad id) and releases
// (including ids that own nothing), the O(1) occupancy figures equal a
// recount of the owner table, and a refused Allocate moves nothing.
func TestFreeCounterMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := newFabric(t)
	g := f.Grid()
	refused := 0
	for step := 0; step < 2000; step++ {
		before := f.FreeMacros()
		if rng.Intn(3) > 0 {
			id := TaskID(rng.Intn(12) - 1) // -1 is NoTask: always refused
			err := f.Allocate(id, rng.Intn(g.Width+2)-1, rng.Intn(g.Height+2)-1, rng.Intn(4), rng.Intn(4))
			if err != nil {
				refused++
				if f.FreeMacros() != before {
					t.Fatalf("step %d: refused Allocate moved FreeMacros %d -> %d", step, before, f.FreeMacros())
				}
			}
		} else {
			if n := f.Release(TaskID(rng.Intn(11))); f.FreeMacros() != before+n {
				t.Fatalf("step %d: Release freed %d, FreeMacros %d -> %d", step, n, before, f.FreeMacros())
			}
		}
		free := recountFree(f)
		if f.FreeMacros() != free || f.UsedMacros() != g.NumMacros()-free {
			t.Fatalf("step %d: FreeMacros = %d, UsedMacros = %d; recount says %d free",
				step, f.FreeMacros(), f.UsedMacros(), free)
		}
	}
	if refused < 100 || refused > 1900 {
		t.Errorf("%d of 2000 steps refused; generator is lopsided", refused)
	}
}

// switchBetween returns the index of the switch joining a and b, or -1
// if the two conductors are not directly connected.
func switchBetween(p arch.Params, a, b arch.Cond) int {
	for _, n := range p.Adjacency(a) {
		if n.Cond == b {
			return n.Switch
		}
	}
	return -1
}
