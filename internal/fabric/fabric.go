// Package fabric simulates the reconfigurable fabric's configuration
// layer: the memory plane that raw bitstreams are written into, with
// rectangular region accounting for dynamic partial reconfiguration
// (which tasks own which macros) and seam analysis for wires shared
// across task boundaries.
package fabric

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// TaskID identifies a loaded hardware task.
type TaskID int

// NoTask marks unowned fabric.
const NoTask TaskID = -1

// Fabric is one reconfigurable device.
type Fabric struct {
	p     arch.Params
	g     arch.Grid
	raw   *bitstream.Raw
	owner []TaskID
	// free counts the NoTask entries of owner; Allocate and Release are
	// the only writers of either.
	free int
	// rects is the rectangle each task holds — one at a time — so
	// Release walks the task's macros, not the whole owner table.
	rects map[TaskID]rect
}

type rect struct{ x0, y0, w, h int }

// New returns a blank fabric.
func New(p arch.Params, g arch.Grid) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f := &Fabric{p: p, g: g, raw: bitstream.New(p, g), owner: make([]TaskID, g.NumMacros()), free: g.NumMacros(),
		rects: make(map[TaskID]rect)}
	for i := range f.owner {
		f.owner[i] = NoTask
	}
	return f, nil
}

// Params returns the fabric's architecture.
func (f *Fabric) Params() arch.Params { return f.p }

// Grid returns the fabric's dimensions.
func (f *Fabric) Grid() arch.Grid { return f.g }

// Config exposes the live configuration plane. Mutating it directly
// bypasses ownership accounting; loaders should use Allocate first.
func (f *Fabric) Config() *bitstream.Raw { return f.raw }

// OwnerAt returns the task owning macro (x, y).
func (f *Fabric) OwnerAt(x, y int) TaskID {
	if !f.g.Contains(x, y) {
		return NoTask
	}
	return f.owner[f.g.Index(x, y)]
}

// rectCheck validates a rectangle against the grid.
func (f *Fabric) rectCheck(x0, y0, w, h int) error {
	if w < 1 || h < 1 || x0 < 0 || y0 < 0 || x0+w > f.g.Width || y0+h > f.g.Height {
		return fmt.Errorf("fabric: rect %dx%d at (%d,%d) outside %dx%d fabric",
			w, h, x0, y0, f.g.Width, f.g.Height)
	}
	return nil
}

// Allocate reserves a free rectangle for a task. A task holds one
// rectangle at a time: it must Release before it allocates again.
func (f *Fabric) Allocate(id TaskID, x0, y0, w, h int) error {
	if id < 0 {
		return fmt.Errorf("fabric: invalid task id %d", id)
	}
	if _, held := f.rects[id]; held {
		return fmt.Errorf("fabric: task %d already holds a rectangle", id)
	}
	if err := f.rectCheck(x0, y0, w, h); err != nil {
		return err
	}
	for x := x0; x < x0+w; x++ {
		for y := y0; y < y0+h; y++ {
			if o := f.owner[f.g.Index(x, y)]; o != NoTask {
				return fmt.Errorf("fabric: macro (%d,%d) owned by task %d", x, y, o)
			}
		}
	}
	for x := x0; x < x0+w; x++ {
		for y := y0; y < y0+h; y++ {
			f.owner[f.g.Index(x, y)] = id
		}
	}
	f.free -= w * h
	f.rects[id] = rect{x0, y0, w, h}
	return nil
}

// Release clears ownership and configuration of every macro owned by
// the task and returns how many macros were freed.
func (f *Fabric) Release(id TaskID) int {
	r, held := f.rects[id]
	if !held {
		return 0
	}
	delete(f.rects, id)
	for y := r.y0; y < r.y0+r.h; y++ {
		for x := r.x0; x < r.x0+r.w; x++ {
			i := f.g.Index(x, y)
			f.owner[i] = NoTask
			f.raw.Configs[i].Vec().Clear()
		}
	}
	n := r.w * r.h
	f.free += n
	return n
}

// FitsRect reports whether a task could claim the rectangle: it must
// lie inside the grid and every macro must be unowned. Macros owned by
// except are treated as free (pass the relocating task's id, or NoTask
// for a fresh load), so a task may be admitted into space overlapping
// its own current region. Nothing is mutated and nothing allocated:
// this is the overlap half of dry-run admission, probed by placement
// scans at many positions.
func (f *Fabric) FitsRect(x0, y0, w, h int, except TaskID) bool {
	if w < 1 || h < 1 || x0 < 0 || y0 < 0 || x0+w > f.g.Width || y0+h > f.g.Height {
		return false
	}
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			if o := f.owner[f.g.Index(x, y)]; o != NoTask && o != except {
				return false
			}
		}
	}
	return true
}

// FreeMacros returns the number of unowned macros.
func (f *Fabric) FreeMacros() int { return f.free }

// UsedMacros returns the number of task-owned macros.
func (f *Fabric) UsedMacros() int { return f.g.NumMacros() - f.free }

// seam is one of the four boundaries of a task rectangle: the wire kind
// the boundary macro inside the rectangle sees, the kind the same wires
// have in the facing macro outside it, and the offset to that macro.
type seam struct {
	in, out arch.CondKind
	dx, dy  int
}

var (
	eastSeam  = seam{arch.KindHW, arch.KindInW, 1, 0}
	westSeam  = seam{arch.KindInW, arch.KindHW, -1, 0}
	northSeam = seam{arch.KindVW, arch.KindInS, 0, 1}
	southSeam = seam{arch.KindInS, arch.KindVW, 0, -1}
)

// contended reports whether track t of the seam is used on both sides.
func (f *Fabric) contended(s seam, in, out *arch.MacroConfig, t int) bool {
	return in.CondUsed(f.p.CondWire(s.in, t)) && out.CondUsed(f.p.CondWire(s.out, t))
}

// conflictText is the one wording of a contended wire, shared by the
// live analysis and the tests' listing of the dry-run one.
func (f *Fabric) conflictText(c arch.Cond, x, y int, ida, idb TaskID) string {
	return fmt.Sprintf("wire %s of macro (%d,%d) contended by tasks %d and %d",
		f.p.CondName(c), x, y, ida, idb)
}

// SeamConflicts inspects the wires crossing the rectangle's boundary
// and returns a description of each wire driven from both sides by
// different owners. Channel wires physically extend one macro past a
// task edge, so two abutting tasks can contend for the same wire; the
// runtime manager calls this after writing a task's configuration.
// Both sides are read from the live configuration plane.
func (f *Fabric) SeamConflicts(x0, y0, w, h int) []string {
	var out []string
	for y := y0; y < y0+h; y++ {
		f.liveSeam(&out, x0+w-1, y, eastSeam)
	}
	for y := y0; y < y0+h; y++ {
		f.liveSeam(&out, x0, y, westSeam)
	}
	for x := x0; x < x0+w; x++ {
		f.liveSeam(&out, x, y0+h-1, northSeam)
	}
	for x := x0; x < x0+w; x++ {
		f.liveSeam(&out, x, y0, southSeam)
	}
	return out
}

// liveSeam appends the contended tracks between boundary macro (ax, ay)
// and the macro facing it across s. The W-track loop runs only when
// both macros touch that side's channel at all.
func (f *Fabric) liveSeam(out *[]string, ax, ay int, s seam) {
	bx, by := ax+s.dx, ay+s.dy
	if !f.g.Contains(ax, ay) || !f.g.Contains(bx, by) {
		return
	}
	ida, idb := f.owner[f.g.Index(ax, ay)], f.owner[f.g.Index(bx, by)]
	if ida == idb {
		return
	}
	a, b := f.raw.At(ax, ay), f.raw.At(bx, by)
	if !a.KindUsed(s.in) || !b.KindUsed(s.out) {
		return
	}
	for t := 0; t < f.p.W; t++ {
		if f.contended(s, a, b, t) {
			*out = append(*out, f.conflictText(f.p.CondWire(s.in, t), ax, ay, ida, idb))
		}
	}
}

// HasCandidateSeamConflict runs the seam analysis of SeamConflicts for
// a hypothetical placement, without writing anything into the fabric,
// and reports whether it finds a contended wire: the task `as`
// occupies rectangle (x0, y0, w, h) with the per-macro configurations
// returned by cfgAt (rectangle-relative coordinates; nil means
// all-off). Macros outside the rectangle are read from the live
// configuration, except that macros owned by `as` are skipped — for a
// relocation they would be released (and cleared) before the
// candidate is written, and for a fresh load `as` is a new id nothing
// else owns. The verdict equals what SeamConflicts would report after
// Allocate-and-write at the same position, which is what makes dry-run
// admission sound. It stops at the first contended wire and allocates
// nothing: placement scans probe hundreds of positions with it.
func (f *Fabric) HasCandidateSeamConflict(as TaskID, x0, y0, w, h int, cfgAt func(dx, dy int) *arch.MacroConfig) bool {
	found := false
	f.scanCandidateSeams(as, x0, y0, w, h, cfgAt, func(int, int, arch.Cond, TaskID) bool {
		found = true
		return true
	})
	return found
}

// candidateSeam is one boundary macro of a hypothetical placement paired
// with the live macro facing it. The zero value (in == nil) stands for
// a seam on which no track can be contended.
type candidateSeam struct {
	s       seam
	ax, ay  int
	in, out *arch.MacroConfig
	idb     TaskID
}

// scanCandidateSeams walks the four seams of the hypothetical
// placement and calls emit for every contended wire; emit returning
// true stops the scan. Boundary macros are visited as (east, west) per
// row, then (north, south) per column, tracks interleaved within a pair.
func (f *Fabric) scanCandidateSeams(as TaskID, x0, y0, w, h int, cfgAt func(dx, dy int) *arch.MacroConfig, emit func(ax, ay int, ac arch.Cond, idb TaskID) bool) {
	// pair resolves one seam of boundary macro (ax, ay): the inside
	// endpoint reads the candidate configuration, the outside one the
	// live plane. The W-track loop is worth running only when both
	// touch that side's channel at all.
	pair := func(ax, ay int, s seam) candidateSeam {
		bx, by := ax+s.dx, ay+s.dy
		if !f.g.Contains(ax, ay) || !f.g.Contains(bx, by) {
			return candidateSeam{}
		}
		idb := f.owner[f.g.Index(bx, by)]
		if idb == as {
			return candidateSeam{}
		}
		in, out := cfgAt(ax-x0, ay-y0), f.raw.At(bx, by)
		if in == nil || !in.KindUsed(s.in) || !out.KindUsed(s.out) {
			return candidateSeam{}
		}
		return candidateSeam{s, ax, ay, in, out, idb}
	}
	scan := func(pairs [2]candidateSeam) (stop bool) {
		if pairs[0].in == nil && pairs[1].in == nil {
			return false
		}
		for t := 0; t < f.p.W; t++ {
			for i := range pairs {
				c := &pairs[i]
				if c.in != nil && f.contended(c.s, c.in, c.out, t) &&
					emit(c.ax, c.ay, f.p.CondWire(c.s.in, t), c.idb) {
					return true
				}
			}
		}
		return false
	}
	for y := y0; y < y0+h; y++ {
		if scan([2]candidateSeam{pair(x0+w-1, y, eastSeam), pair(x0, y, westSeam)}) {
			return
		}
	}
	for x := x0; x < x0+w; x++ {
		if scan([2]candidateSeam{pair(x, y0+h-1, northSeam), pair(x, y0, southSeam)}) {
			return
		}
	}
}
