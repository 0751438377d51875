// Package controller implements the run-time reconfiguration manager
// of Section II-C: it accepts Virtual Bit-Streams, de-virtualizes them
// — in parallel, macro by macro, as the paper's architecture sketch
// shows — places them on the fabric at load time, and supports
// unloading and on-the-fly relocation (Section V).
//
// De-virtualization is split from placement so callers can cache its
// result: DecodeVBS produces a Decoded, a position-independent bundle
// of region configurations that can be written to any free slot of any
// compatible fabric, any number of times. The vbsd daemon's LRU cache
// of Decoded values is what lets repeated loads of the same task skip
// the decode entirely.
//
// All exported Controller methods are safe for concurrent use; a
// single mutex serializes fabric mutations, which is the per-fabric
// request serialization the runtime daemon relies on.
package controller

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sched"
)

// ErrRestoreFailed is the double fault of the Section V migration
// path: a relocation was refused and the task could not be rewritten
// at its old position either. The task is still tracked but owns no
// fabric region; the fabric needs operator attention.
var ErrRestoreFailed = errors.New("relocation failed and restore impossible")

// ErrNoSlot reports that no conflict-free position currently exists
// for the task on this fabric — the capacity failure that compaction
// (unlike, say, an architecture mismatch) has a chance of fixing.
var ErrNoSlot = errors.New("no conflict-free slot")

// Decoded is a de-virtualized Virtual Bit-Stream: the task's raw
// configuration on its own w×h grid, still abstracted from any fabric
// position. A Decoded is immutable after creation and may be shared
// freely — loading only reads it — so it is the unit the daemon's
// decoded-bitstream cache stores.
type Decoded struct {
	// VBS is the source container.
	VBS *core.VBS
	// raw is the task footprint. Only the macros some entry configures
	// have a configuration; the rest are nil, so a load neither writes
	// nor seam-checks them. It never leaves this package.
	raw *bitstream.Raw
	// members counts the configured macros.
	members int
}

// ConfigAt returns the decoded configuration of task-relative macro
// (dx, dy), or nil outside the task footprint (or for a macro no entry
// configures). The returned config must not be mutated.
func (d *Decoded) ConfigAt(dx, dy int) *arch.MacroConfig {
	if !d.raw.G.Contains(dx, dy) {
		return nil
	}
	return d.raw.At(dx, dy)
}

// SizeBits returns the footprint of the decoded configurations (the
// raw bits a load writes), used for cache accounting.
func (d *Decoded) SizeBits() int { return d.members * d.VBS.P.NRaw() }

// DecodeVBS de-virtualizes every entry of the VBS concurrently with
// the given worker count (0 selects GOMAXPROCS) onto a blank grid
// exactly the task's size, through core.VBS.DecodeInto — the
// decoder everything else uses, so the Decoded owns its bits outright
// (pooled routers merge into it and are released) and may be cached
// and shared freely. The result is deterministic regardless of worker
// count. DecodeVBS needs no fabric: it is the cache-friendly entry
// point shared by every controller.
func DecodeVBS(v *core.VBS, workers int) (*Decoded, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	d := blankDecoded(v)
	if err := v.DecodeInto(d.raw, 0, 0, workers); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return d, nil
}

// blankDecoded lays out the all-off Decoded of a valid VBS: a grid the
// task's size with a configuration under every member of every entry
// (entries cover disjoint regions), all carved out of one slab, so a
// decoded task is five heap objects whatever its size. Only tasks are
// built this way. A fabric plane keeps bitstream.New's one object per
// macro: folded into slabs, the two 64×64 planes halve the collector's
// scan work on an otherwise small heap, the mutator assists that end a
// mark phase promptly on two CPUs go with it, and the warm service
// floor's round tail (batch_p99_ms) spreads three times as wide.
func blankDecoded(v *core.VBS) *Decoded {
	g := arch.Grid{Width: v.TaskW, Height: v.TaskH}
	d := &Decoded{VBS: v, raw: &bitstream.Raw{P: v.P, G: g, Configs: make([]*arch.MacroConfig, g.NumMacros())}}
	for i := range v.Entries {
		cw, ch := v.RegionDims(v.Entries[i].X, v.Entries[i].Y)
		d.members += cw * ch
	}
	slab := arch.MakeMacroConfigs(v.P, d.members)
	k := 0
	for i := range v.Entries {
		e := &v.Entries[i]
		cw, ch := v.RegionDims(e.X, e.Y)
		for m := 0; m < cw*ch; m++ {
			d.raw.Configs[g.Index(e.X*v.Cluster+m%cw, e.Y*v.Cluster+m/cw)] = &slab[k]
			k++
		}
	}
	return d
}

// Controller manages tasks on one fabric. All exported methods are
// safe for concurrent use.
type Controller struct {
	mu      sync.Mutex
	fab     *fabric.Fabric
	workers int
	tasks   map[fabric.TaskID]*Task
	nextID  fabric.TaskID

	loads       atomic.Uint64
	unloads     atomic.Uint64
	relocations atomic.Uint64
}

// Task records a loaded hardware task.
type Task struct {
	ID   fabric.TaskID
	VBS  *core.VBS
	X, Y int

	// dec keeps the decoded configurations so relocation never
	// re-decodes (the paper's on-the-fly migration path, made O(write)).
	dec *Decoded
}

// Stats is a snapshot of one controller's counters and occupancy.
type Stats struct {
	// Tasks is the number of loaded tasks.
	Tasks int `json:"tasks"`
	// FreeMacros and TotalMacros describe fabric occupancy; Occupancy
	// is the owned fraction in [0, 1].
	FreeMacros  int     `json:"free_macros"`
	TotalMacros int     `json:"total_macros"`
	Occupancy   float64 `json:"occupancy"`
	// Loads, Unloads, Relocations count successful operations.
	Loads       uint64 `json:"loads"`
	Unloads     uint64 `json:"unloads"`
	Relocations uint64 `json:"relocations"`
}

// New returns a controller whose Load decodes with the given worker
// count (0 selects GOMAXPROCS).
func New(f *fabric.Fabric, workers int) *Controller {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Controller{fab: f, workers: workers, tasks: make(map[fabric.TaskID]*Task)}
}

// Fabric returns the managed fabric. Callers touching the fabric
// directly while the controller is in concurrent use must provide
// their own synchronization.
func (c *Controller) Fabric() *fabric.Fabric { return c.fab }

// Task returns a loaded task by id.
func (c *Controller) Task(id fabric.TaskID) (*Task, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[id]
	return t, ok
}

// Stats returns a consistent snapshot of counters and occupancy.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	tasks := len(c.tasks)
	free := c.fab.FreeMacros()
	c.mu.Unlock()
	total := c.fab.Grid().NumMacros()
	return Stats{
		Tasks:       tasks,
		FreeMacros:  free,
		TotalMacros: total,
		Occupancy:   float64(total-free) / float64(total),
		Loads:       c.loads.Load(),
		Unloads:     c.unloads.Load(),
		Relocations: c.relocations.Load(),
	}
}

// Load decodes the task with this controller's worker pool and places
// it at the first position where it fits without seam conflicts.
func (c *Controller) Load(v *core.VBS) (*Task, error) {
	d, err := DecodeVBS(v, c.workers)
	if err != nil {
		return nil, err
	}
	return c.LoadDecodedPolicy(d, nil)
}

// LoadDecodedPolicy places an already-decoded task at the position the
// policy selects (nil selects first fit). This is the cache-hit load
// path: no de-virtualization runs. Candidate positions are evaluated
// with the dry-run admission check (overlap + seam analysis against
// the candidate decode), so a rejected position never touches the
// fabric; only the one committed slot is written, and it is still
// verified write-then-check like every load.
func (c *Controller) LoadDecodedPolicy(d *Decoded, p sched.Policy) (*Task, error) {
	if err := c.checkArch(d.VBS); err != nil {
		return nil, err
	}
	if p == nil {
		p = sched.FirstFit()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := d.VBS
	x, y, ok := p.PickSlot(&slotView{c: c, d: d, as: c.nextID})
	if !ok {
		return nil, fmt.Errorf("controller: %w for %dx%d task", ErrNoSlot, v.TaskW, v.TaskH)
	}
	return c.loadDecodedAtLocked(d, x, y)
}

// fitsLocked is the dry-run admission check: it reports whether the
// decoded task could be committed at (x0, y0) for the task id `as`
// (the relocating task's id, or the prospective id of a new load) —
// region inside the fabric, no overlap with other tasks, no seam
// conflicts with the candidate decode — without mutating the fabric.
// It builds no rejection messages, so placement scans can probe
// hundreds of positions cheaply. Callers hold c.mu.
func (c *Controller) fitsLocked(d *Decoded, x0, y0 int, as fabric.TaskID) bool {
	v := d.VBS
	return c.fab.FitsRect(x0, y0, v.TaskW, v.TaskH, as) &&
		!c.fab.HasCandidateSeamConflict(as, x0, y0, v.TaskW, v.TaskH, d.ConfigAt)
}

// slotView adapts a locked controller and a candidate decode to the
// sched.Slots interface. Policies run under c.mu and must not reenter
// the controller.
type slotView struct {
	c  *Controller
	d  *Decoded
	as fabric.TaskID
}

func (s *slotView) Dims() (int, int) {
	g := s.c.fab.Grid()
	return g.Width, g.Height
}

func (s *slotView) Task() (int, int) { return s.d.VBS.TaskW, s.d.VBS.TaskH }

func (s *slotView) Free(x, y int) bool {
	if !s.c.fab.Grid().Contains(x, y) {
		return false
	}
	o := s.c.fab.OwnerAt(x, y)
	return o == fabric.NoTask || o == s.as
}

func (s *slotView) CanPlace(x, y int) bool {
	return s.c.fitsLocked(s.d, x, y, s.as)
}

// LoadDecodedAt places an already-decoded task at an explicit position.
func (c *Controller) LoadDecodedAt(d *Decoded, x0, y0 int) (*Task, error) {
	if err := c.checkArch(d.VBS); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadDecodedAtLocked(d, x0, y0)
}

func (c *Controller) checkArch(v *core.VBS) error {
	if v.P != c.fab.Params() {
		return fmt.Errorf("controller: task architecture %v, fabric %v", v.P, c.fab.Params())
	}
	return nil
}

func (c *Controller) loadDecodedAtLocked(d *Decoded, x0, y0 int) (*Task, error) {
	v := d.VBS
	id := c.nextID
	if err := c.fab.Allocate(id, x0, y0, v.TaskW, v.TaskH); err != nil {
		return nil, err
	}
	c.writeDecoded(d, x0, y0)
	if conflicts := c.fab.SeamConflicts(x0, y0, v.TaskW, v.TaskH); len(conflicts) > 0 {
		c.fab.Release(id)
		return nil, fmt.Errorf("controller: seam conflicts at (%d,%d): %s", x0, y0, conflicts[0])
	}
	c.nextID++
	t := &Task{ID: id, VBS: v, X: x0, Y: y0, dec: d}
	c.tasks[id] = t
	c.loads.Add(1)
	return t, nil
}

// Unload removes a task and clears its fabric region.
func (c *Controller) Unload(id fabric.TaskID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tasks[id]; !ok {
		return fmt.Errorf("controller: task %d not loaded", id)
	}
	c.fab.Release(id)
	delete(c.tasks, id)
	c.unloads.Add(1)
	return nil
}

// Relocate moves a loaded task to a new position — the on-the-fly
// migration path of Section V. The task's cached decode is rewritten
// at the new position, so no de-virtualization runs. The old region is
// released first, so a task may relocate into overlapping free space.
func (c *Controller) Relocate(id fabric.TaskID, x0, y0 int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.relocateLocked(id, x0, y0)
}

func (c *Controller) relocateLocked(id fabric.TaskID, x0, y0 int) error {
	t, ok := c.tasks[id]
	if !ok {
		return fmt.Errorf("controller: task %d not loaded", id)
	}
	oldX, oldY := t.X, t.Y
	restore := func(err error) error {
		// Restore at the old position; the cached decode makes this
		// loss-free.
		if err2 := c.fab.Allocate(id, oldX, oldY, t.VBS.TaskW, t.VBS.TaskH); err2 != nil {
			return fmt.Errorf("controller: %w: %w / %w", ErrRestoreFailed, err, err2)
		}
		c.writeDecoded(t.dec, oldX, oldY)
		return err
	}
	c.fab.Release(id)
	if err := c.fab.Allocate(id, x0, y0, t.VBS.TaskW, t.VBS.TaskH); err != nil {
		return restore(err)
	}
	c.writeDecoded(t.dec, x0, y0)
	// The load path refuses seam-conflicting placements; relocation
	// must apply the same analysis or a move could electrically
	// corrupt an abutting task.
	if conflicts := c.fab.SeamConflicts(x0, y0, t.VBS.TaskW, t.VBS.TaskH); len(conflicts) > 0 {
		c.fab.Release(id)
		return restore(fmt.Errorf("controller: seam conflicts at (%d,%d): %s", x0, y0, conflicts[0]))
	}
	t.X, t.Y = x0, y0
	c.relocations.Add(1)
	return nil
}

// Compact defragments the fabric: tasks are relocated one by one to
// the first-fit position scanning from the origin, coalescing free
// space. Because every task keeps its position-free decode, this is a
// pure runtime operation — the paper's motivating scenario for
// relocation. Candidate positions are pre-filtered with the dry-run
// overlap query (self-overlap allowed), so occupied slots cost no
// fabric writes; each surviving candidate commits through the
// write-then-verify relocation path, which also performs the seam
// analysis. Seam deliberately stays on the commit side here — unlike
// the load scan — because compaction is off the hot load path and a
// refused commit is the one place the restore double fault can
// actually arise and be exercised; a full dry-run would make that
// failure mode unreachable. It returns the number of tasks moved. A
// relocation that is refused and cannot be restored (the
// ErrRestoreFailed double fault) aborts compaction and is returned:
// the affected task is still tracked but owns no fabric region.
func (c *Controller) Compact() (moved int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Deterministic order: by current position, row-major.
	ids := make([]fabric.TaskID, 0, len(c.tasks))
	for id := range c.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ta, tb := c.tasks[ids[a]], c.tasks[ids[b]]
		if ta.Y != tb.Y {
			return ta.Y < tb.Y
		}
		if ta.X != tb.X {
			return ta.X < tb.X
		}
		return ids[a] < ids[b]
	})
	g := c.fab.Grid()
	for _, id := range ids {
		t := c.tasks[id]
	scan:
		for y := 0; y <= t.Y; y++ {
			maxX := g.Width - t.VBS.TaskW
			if y == t.Y {
				maxX = t.X - 1
			}
			for x := 0; x <= maxX; x++ {
				if !c.fab.FitsRect(x, y, t.VBS.TaskW, t.VBS.TaskH, id) {
					continue
				}
				switch err := c.relocateLocked(id, x, y); {
				case err == nil:
					moved++
					break scan
				case errors.Is(err, ErrRestoreFailed):
					return moved, err
				}
			}
		}
	}
	return moved, nil
}

// writeDecoded writes a position-free decode into the fabric
// configuration at (x0, y0). It only reads the Decoded, so one Decoded
// may serve many concurrent loads across fabrics. Callers hold c.mu.
func (c *Controller) writeDecoded(d *Decoded, x0, y0 int) {
	raw := c.fab.Config()
	g := d.raw.G
	for dy := 0; dy < g.Height; dy++ {
		for dx := 0; dx < g.Width; dx++ {
			if cfg := d.raw.At(dx, dy); cfg != nil {
				raw.At(x0+dx, y0+dy).Vec().Or(cfg.Vec())
			}
		}
	}
}
