package controller

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/devirt"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/sched"
)

// makeTask compiles a small random task to a VBS.
func makeTask(t testing.TB, seed int64, nLB, size, w, cluster int) *core.VBS {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := &netlist.Design{Name: "task", K: 6}
	var nets []netlist.NetID
	for i := 0; i < 4; i++ {
		_, n := d.AddInputPad("pi")
		nets = append(nets, n)
	}
	for i := 0; i < nLB; i++ {
		nin := rng.Intn(4) + 1
		ins := make([]netlist.NetID, nin)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		truth := bits.NewVec(64)
		for b := 0; b < 64; b++ {
			truth.Set(b, rng.Intn(2) == 0)
		}
		_, n := d.AddLogicBlock("lb", ins, truth, false)
		nets = append(nets, n)
	}
	for i := 0; i < 4; i++ {
		d.AddOutputPad("po", nets[len(nets)-1-i])
	}
	pl, err := place.Place(d, arch.GridForSize(size), place.Options{Seed: seed, InnerNum: 1, FastExit: true})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := rrg.Build(arch.Params{W: w, K: 6}, pl.Grid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// loadAt decodes v with c's worker pool and places it at (x0, y0).
func loadAt(c *Controller, v *core.VBS, x0, y0 int) (*Task, error) {
	d, err := DecodeVBS(v, c.workers)
	if err != nil {
		return nil, err
	}
	return c.LoadDecodedAt(d, x0, y0)
}

// canPlace runs the dry-run admission check the placement policies
// probe, for the prospective id of a new load.
func canPlace(c *Controller, d *Decoded, x0, y0 int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fitsLocked(d, x0, y0, c.nextID)
}

func newController(t testing.TB, gridW, gridH, w, workers int) *Controller {
	t.Helper()
	f, err := fabric.New(arch.Params{W: w, K: 6}, arch.Grid{Width: gridW, Height: gridH})
	if err != nil {
		t.Fatal(err)
	}
	return New(f, workers)
}

func TestLoadUnload(t *testing.T) {
	v := makeTask(t, 1, 12, 4, 8, 1)
	c := newController(t, 16, 16, 8, 2)
	task, err := c.Load(v)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Tasks != 1 {
		t.Errorf("Tasks = %d", c.Stats().Tasks)
	}
	if _, ok := c.Task(task.ID); !ok {
		t.Error("task not retrievable")
	}
	// Fabric region owned and configured.
	if c.Fabric().OwnerAt(task.X, task.Y) != task.ID {
		t.Error("fabric not owned")
	}
	used := 0
	for x := 0; x < v.TaskW; x++ {
		for y := 0; y < v.TaskH; y++ {
			used += c.Fabric().Config().At(task.X+x, task.Y+y).Vec().OnesCount()
		}
	}
	if used == 0 {
		t.Error("no configuration written")
	}
	if err := c.Unload(task.ID); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Tasks != 0 || c.Fabric().FreeMacros() != 16*16 {
		t.Error("unload incomplete")
	}
	if err := c.Unload(task.ID); err == nil {
		t.Error("double unload accepted")
	}
}

// TestMultiTask loads several tasks and checks disjoint placement.
func TestMultiTask(t *testing.T) {
	c := newController(t, 20, 20, 8, 2)
	var tasks []*Task
	for seed := int64(1); seed <= 3; seed++ {
		v := makeTask(t, seed, 10, 4, 8, 1)
		task, err := c.Load(v)
		if err != nil {
			t.Fatalf("task %d: %v", seed, err)
		}
		tasks = append(tasks, task)
	}
	if c.Stats().Tasks != 3 {
		t.Fatalf("Tasks = %d", c.Stats().Tasks)
	}
	for i, a := range tasks {
		for _, b := range tasks[i+1:] {
			if a.X < b.X+b.VBS.TaskW && b.X < a.X+a.VBS.TaskW &&
				a.Y < b.Y+b.VBS.TaskH && b.Y < a.Y+a.VBS.TaskH {
				t.Errorf("tasks %d and %d overlap", a.ID, b.ID)
			}
		}
	}
}

// TestParallelDecodeMatchesSequential: the controller's parallel
// decode must equal the reference decoder bit for bit, at any worker
// count.
func TestParallelDecodeMatchesSequential(t *testing.T) {
	v := makeTask(t, 4, 16, 5, 8, 2)
	ref, err := v.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		c := newController(t, v.TaskW, v.TaskH, 8, workers)
		task, err := loadAt(c, v, 0, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for x := 0; x < v.TaskW; x++ {
			for y := 0; y < v.TaskH; y++ {
				if !c.Fabric().Config().At(x, y).Vec().Equal(ref.At(x, y).Vec()) {
					t.Fatalf("workers=%d: macro (%d,%d) differs from reference", workers, x, y)
				}
			}
		}
		if err := c.Unload(task.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelocate moves a task and verifies the configuration is a
// translation of the original.
func TestRelocate(t *testing.T) {
	v := makeTask(t, 5, 12, 4, 8, 1)
	c := newController(t, 20, 20, 8, 2)
	task, err := loadAt(c, v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*bits.Vec, 0, v.TaskW*v.TaskH)
	for y := 0; y < v.TaskH; y++ {
		for x := 0; x < v.TaskW; x++ {
			before = append(before, c.Fabric().Config().At(x, y).Vec().Clone())
		}
	}
	if err := c.Relocate(task.ID, 9, 7); err != nil {
		t.Fatal(err)
	}
	if task.X != 9 || task.Y != 7 {
		t.Errorf("task position (%d,%d)", task.X, task.Y)
	}
	k := 0
	for y := 0; y < v.TaskH; y++ {
		for x := 0; x < v.TaskW; x++ {
			got := c.Fabric().Config().At(9+x, 7+y).Vec()
			if !got.Equal(before[k]) {
				t.Fatalf("macro (%d,%d) not a translation", x, y)
			}
			k++
		}
	}
	// Old region cleared.
	if c.Fabric().Config().At(0, 0).Vec().OnesCount() != 0 {
		t.Error("old region not cleared")
	}
	if c.Fabric().OwnerAt(0, 0) != fabric.NoTask {
		t.Error("old region still owned")
	}
}

func TestRelocateFailureRestores(t *testing.T) {
	v := makeTask(t, 6, 10, 4, 8, 1)
	c := newController(t, 14, 14, 8, 2)
	task, err := loadAt(c, v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocker := makeTask(t, 7, 8, 4, 8, 1)
	if _, err := loadAt(c, blocker, 7, 7); err != nil {
		t.Fatal(err)
	}
	// Target overlaps the blocker: relocation must fail and restore.
	if err := c.Relocate(task.ID, 6, 6); err == nil {
		t.Fatal("relocation into occupied space accepted")
	}
	if task.X != 0 || task.Y != 0 {
		t.Errorf("task moved to (%d,%d) despite failure", task.X, task.Y)
	}
	if c.Fabric().OwnerAt(0, 0) != task.ID {
		t.Error("task region not restored")
	}
	used := 0
	for x := 0; x < v.TaskW; x++ {
		for y := 0; y < v.TaskH; y++ {
			used += c.Fabric().Config().At(x, y).Vec().OnesCount()
		}
	}
	if used == 0 {
		t.Error("configuration not restored after failed relocation")
	}
}

func TestLoadRejectsWrongArch(t *testing.T) {
	v := makeTask(t, 8, 8, 4, 8, 1)
	c := newController(t, 16, 16, 9, 2) // W=9 fabric, task compiled for W=8
	if _, err := c.Load(v); err == nil {
		t.Error("architecture mismatch accepted")
	}
}

func TestLoadFullFabric(t *testing.T) {
	v := makeTask(t, 9, 8, 4, 8, 1)
	c := newController(t, v.TaskW, v.TaskH, 8, 1)
	if _, err := c.Load(v); err != nil {
		t.Fatalf("exact-fit load: %v", err)
	}
	v2 := makeTask(t, 10, 8, 4, 8, 1)
	if _, err := c.Load(v2); err == nil {
		t.Error("second task on full fabric accepted")
	}
}

func BenchmarkParallelDecode(b *testing.B) {
	v := makeTask(b, 11, 30, 7, 8, 2)
	c := newController(b, v.TaskW, v.TaskH, 8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeVBS(v, c.workers); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadDecodedSkipsDecode: a shared Decoded must load on several
// fabrics, each a bit-exact copy of the reference decode.
func TestLoadDecodedSkipsDecode(t *testing.T) {
	v := makeTask(t, 12, 10, 4, 8, 1)
	d, err := DecodeVBS(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.SizeBits() == 0 {
		t.Error("SizeBits = 0")
	}
	ref, err := v.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	for fi := 0; fi < 2; fi++ {
		c := newController(t, 16, 16, 8, 2)
		task, err := c.LoadDecodedAt(d, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < v.TaskW; x++ {
			for y := 0; y < v.TaskH; y++ {
				if !c.Fabric().Config().At(1+x, 2+y).Vec().Equal(ref.At(x, y).Vec()) {
					t.Fatalf("fabric %d: macro (%d,%d) differs from reference", fi, x, y)
				}
			}
		}
		st := c.Stats()
		if st.Loads != 1 || st.Tasks != 1 {
			t.Errorf("fabric %d: Loads = %d, Tasks = %d", fi, st.Loads, st.Tasks)
		}
		_ = task
	}
}

// TestRelocateReusesDecode: relocation must not re-decode: the task
// keeps the very Decoded it was loaded from.
func TestRelocateReusesDecode(t *testing.T) {
	v := makeTask(t, 13, 10, 4, 8, 1)
	c := newController(t, 20, 20, 8, 2)
	d, err := DecodeVBS(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, err := c.LoadDecodedAt(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Relocate(task.ID, 8, 8); err != nil {
		t.Fatal(err)
	}
	if task.dec != d {
		t.Error("relocation replaced the task's Decoded: it re-decoded")
	}
	if st := c.Stats(); st.Relocations != 1 {
		t.Errorf("Relocations = %d", st.Relocations)
	}
}

// TestConcurrentOps hammers one controller from many goroutines; run
// with -race. Each goroutine loads, relocates and unloads its own
// pre-decoded task.
func TestConcurrentOps(t *testing.T) {
	const clients = 8
	decs := make([]*Decoded, clients)
	for i := range decs {
		v := makeTask(t, int64(40+i%3), 8, 4, 8, 1)
		d, err := DecodeVBS(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		decs[i] = d
	}
	c := newController(t, 32, 32, 8, 2)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(d *Decoded) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				task, err := c.LoadDecodedPolicy(d, nil)
				if err != nil {
					continue // fabric momentarily full
				}
				_, _ = c.Compact()
				_ = c.Unload(task.ID)
			}
		}(decs[i])
	}
	wg.Wait()
	if c.Stats().Tasks != 0 {
		t.Errorf("Tasks = %d after all unloads", c.Stats().Tasks)
	}
	if free := c.Fabric().FreeMacros(); free != 32*32 {
		t.Errorf("FreeMacros = %d", free)
	}
}

// TestCompact: after unloading a task in the middle, Compact must pull
// the remaining tasks toward the origin, coalescing free space.
func TestCompact(t *testing.T) {
	c := newController(t, 24, 24, 8, 2)
	var ids []fabric.TaskID
	for seed := int64(20); seed < 23; seed++ {
		v := makeTask(t, seed, 8, 4, 8, 1)
		task, err := c.Load(v)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, task.ID)
	}
	// Free the first slot; the others should slide into it.
	first, _ := c.Task(ids[0])
	w := first.VBS.TaskW
	if err := c.Unload(ids[0]); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("Compact moved nothing despite a freed slot")
	}
	second, _ := c.Task(ids[1])
	if second.X != 0 || second.Y != 0 {
		t.Errorf("task %d at (%d,%d), want origin", ids[1], second.X, second.Y)
	}
	// All tasks still loaded and regions owned consistently.
	if c.Stats().Tasks != 2 {
		t.Errorf("Tasks = %d", c.Stats().Tasks)
	}
	_ = w
}

// TestCompactIdempotent: a second Compact on an already-compacted
// fabric moves nothing.
func TestCompactIdempotent(t *testing.T) {
	c := newController(t, 20, 20, 8, 1)
	for seed := int64(30); seed < 32; seed++ {
		if _, err := c.Load(makeTask(t, seed, 6, 4, 8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("second Compact moved %d tasks", moved)
	}
}

// seamTask hand-builds a 1x1-macro VBS whose single connection routes
// a west boundary wire to an east boundary wire, so two adjacent
// copies contend for the shared channel wire between them.
func seamTask(t testing.TB) *core.VBS {
	t.Helper()
	p := arch.Params{W: 8, K: 6}
	r := devirt.Region{P: p, Nominal: 1, CW: 1, CH: 1}
	v := &core.VBS{
		P: p, Cluster: 1, TaskW: 1, TaskH: 1,
		Entries: []core.Entry{{
			Conns: []core.Conn{{In: r.CodeWest(0, 0), Out: r.CodeEast(0, 0)}},
		}},
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRelocateRejectsSeamConflict: relocation must apply the same
// seam analysis as loading, and restore the task when it fails.
func TestRelocateRejectsSeamConflict(t *testing.T) {
	v := seamTask(t)
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 6, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(f, 1)
	a, err := loadAt(c, v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadAt(c, v, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Loading directly adjacent is refused by the load path...
	if _, err := loadAt(c, v, 1, 0); err == nil {
		t.Fatal("adjacent conflicting load accepted")
	}
	// ...so relocation there must be refused too, with B restored.
	if err := c.Relocate(b.ID, 1, 0); err == nil {
		t.Fatal("relocation into seam conflict accepted")
	}
	if b.X != 3 || b.Y != 0 {
		t.Errorf("task moved to (%d,%d) despite seam conflict", b.X, b.Y)
	}
	if c.Fabric().OwnerAt(3, 0) != b.ID {
		t.Error("task region not restored")
	}
	if c.Fabric().Config().At(3, 0).Vec().OnesCount() == 0 {
		t.Error("configuration not restored after refused relocation")
	}
	if got := c.Stats().Relocations; got != 0 {
		t.Errorf("Relocations = %d after refused move", got)
	}
	// A harmless move still works.
	if err := c.Relocate(b.ID, 5, 0); err != nil {
		t.Fatalf("conflict-free relocation refused: %v", err)
	}
	_ = a
}

// quietTask hand-builds a 1x1-macro VBS with no connections: it can
// abut anything without seam conflicts, isolating placement geometry.
func quietTask(t testing.TB) *core.VBS {
	t.Helper()
	v := &core.VBS{
		P: arch.Params{W: 8, K: 6}, Cluster: 1, TaskW: 1, TaskH: 1,
		Entries: []core.Entry{{}},
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCanPlaceDoesNotMutate: probing every position of a populated
// fabric must leave ownership and configuration untouched.
func TestCanPlaceDoesNotMutate(t *testing.T) {
	v := seamTask(t)
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 6, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(f, 1)
	if _, err := loadAt(c, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAt(c, v, 3, 0); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeVBS(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]fabric.TaskID, 6)
	configs := make([]*bits.Vec, 6)
	for x := 0; x < 6; x++ {
		owners[x] = f.OwnerAt(x, 0)
		configs[x] = f.Config().At(x, 0).Vec().Clone()
	}
	for x := 0; x < 6; x++ {
		_ = canPlace(c, d, x, 0)
	}
	for x := 0; x < 6; x++ {
		if f.OwnerAt(x, 0) != owners[x] {
			t.Errorf("dry run mutated owner of (%d,0)", x)
		}
		if !f.Config().At(x, 0).Vec().Equal(configs[x]) {
			t.Errorf("dry run mutated configuration of (%d,0)", x)
		}
	}
}

// TestCanPlaceMatchesCommit: the dry-run verdict must agree with the
// write-then-verify load at every position.
func TestCanPlaceMatchesCommit(t *testing.T) {
	v := seamTask(t)
	d, err := DecodeVBS(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Controller {
		f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 6, Height: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := New(f, 1)
		if _, err := loadAt(c, v, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := loadAt(c, v, 3, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	dry := mk()
	for x := 0; x < 6; x++ {
		want := func() bool {
			live := mk()
			_, err := live.LoadDecodedAt(d, x, 0)
			return err == nil
		}()
		if got := canPlace(dry, d, x, 0); got != want {
			t.Errorf("x=%d: dry run = %v, commit = %v", x, got, want)
		}
	}
}

// TestLoadDecodedPolicyBestFit: best-fit must pick the snug slot
// first-fit would skip.
func TestLoadDecodedPolicyBestFit(t *testing.T) {
	v := quietTask(t)
	d, err := DecodeVBS(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Controller {
		f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 4, Height: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := New(f, 1)
		if _, err := loadAt(c, v, 2, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ff, err := mk().LoadDecodedPolicy(d, sched.FirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if ff.X != 0 {
		t.Errorf("first-fit placed at x=%d, want 0", ff.X)
	}
	bf, err := mk().LoadDecodedPolicy(d, sched.BestFit())
	if err != nil {
		t.Fatal(err)
	}
	// (3,0) is walled by the task at (2,0) and the fabric edge: gap 0.
	if bf.X != 3 {
		t.Errorf("best-fit placed at x=%d, want 3", bf.X)
	}
}

// TestCompactPropagatesRestoreFailure: when a refused relocation
// cannot restore the task (its old region was corrupted away), Compact
// must surface the double fault instead of discarding it.
func TestCompactPropagatesRestoreFailure(t *testing.T) {
	v := seamTask(t)
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: 6, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(f, 1)
	a, err := loadAt(c, v, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadAt(c, v, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the fabric behind the controller's back: steal B's
	// region, so the restore after a refused move has nowhere to go.
	f.Release(b.ID)
	if err := f.Allocate(99, 2, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Compact tries to slide B to (1,0); the seam conflict with A
	// refuses the move and the restore to the stolen (2,0) fails.
	moved, err := c.Compact()
	if err == nil {
		t.Fatal("Compact swallowed the restore failure")
	}
	if !errors.Is(err, ErrRestoreFailed) {
		t.Errorf("Compact error = %v, want ErrRestoreFailed", err)
	}
	if moved != 0 {
		t.Errorf("moved = %d", moved)
	}
	// The documented degraded state: B is still tracked but regionless.
	if _, ok := c.Task(b.ID); !ok {
		t.Error("task dropped from tracking")
	}
	_ = a
}

// TestDecodedHoldsOnlyEntryMembers pins what a load writes and
// seam-checks: a Decoded has a configuration exactly under the members
// of its entries, nil under footprint macros no entry configures, and
// is charged to the cache for those members only. The small bench
// containers are sparse (c=1, absent entries), the mid-style task is
// clustered with truncated edge regions.
func TestDecodedHoldsOnlyEntryMembers(t *testing.T) {
	decs := append(smallDecoded(t), nil)
	var err error
	if decs[8], err = DecodeVBS(makeTask(t, 12, 10, 5, 8, 2), 2); err != nil {
		t.Fatal(err)
	}
	sparse := false
	for i, d := range decs {
		v := d.VBS
		covered := make(map[[2]int]bool)
		for k := range v.Entries {
			e := &v.Entries[k]
			cw, ch := v.RegionDims(e.X, e.Y)
			for m := 0; m < cw*ch; m++ {
				covered[[2]int{e.X*v.Cluster + m%cw, e.Y*v.Cluster + m/cw}] = true
			}
		}
		for dy := -1; dy <= v.TaskH; dy++ {
			for dx := -1; dx <= v.TaskW; dx++ {
				if got := d.ConfigAt(dx, dy) != nil; got != covered[[2]int{dx, dy}] {
					t.Fatalf("task %d: ConfigAt(%d,%d) present = %v, covered = %v", i, dx, dy, got, !got)
				}
			}
		}
		if want := len(covered) * v.P.NRaw(); d.SizeBits() != want {
			t.Errorf("task %d: SizeBits = %d, want %d (%d members)", i, d.SizeBits(), want, len(covered))
		}
		sparse = sparse || len(covered) < v.TaskW*v.TaskH
	}
	if !sparse {
		t.Error("no task leaves a footprint macro unconfigured: the nil case went untested")
	}
}
