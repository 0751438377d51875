// Package core implements the Virtual Bit-Stream (VBS), the paper's
// contribution: a compressed FPGA configuration format abstracted from
// low-level routing detail and from the task's final position on the
// fabric (Section II). A VBS stores, per used macro (or per cluster of
// macros, Section IV-B), the logic-block contents and a list of routed
// connections between macro I/O indices; the de-virtualization router
// (package devirt) re-expands the list into raw switch states at load
// time, at any physical location.
//
// # Binary format
//
// The bit layout follows Table I of the paper, with three documented
// additions the paper's text requires but its table omits: a per-entry
// mode flag selecting the raw-coding fallback (Section III-B), a
// per-member logic-present bitmap (so unused macros inside a cluster
// carry no logic payload), and count fields wide enough for their
// maximum values. All size figures reported by Size include these bits.
//
//	header  task width-1, height-1    ceil(log2(max(w,h))) bits each
//	        entry count               ceil(log2(wR*hR+1)) bits
//	entry   position X, Y             ceil(log2(max(wR,hR))) bits each
//	        logic-present bitmap      c*c bits
//	        logic data                NLB bits per present member
//	        mode                      1 bit (0 coded, 1 raw fallback)
//	 coded  route count               ceil(log2(2*W*c)) bits
//	        connections               route count × 2M bits (in, out)
//	 raw    routing payload           (Nraw-NLB) bits per actual member
//
// where wR×hR is the task size in regions (clusters) and
// M = ceil(log2(4Wc + c²L + 1)).
package core

import (
	"fmt"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/devirt"
)

// Conn is one coded connection: two cluster I/O codes to be joined by
// the de-virtualization router.
type Conn struct {
	In, Out devirt.IOCode
}

// LogicItem is the logic configuration of one member macro.
type LogicItem struct {
	// Member indexes the region's nominal c×c member grid (j*c + i).
	Member int
	// Data holds the NLB logic bits.
	Data *bits.Vec
}

// Entry is the coding of one used region (a macro at cluster size 1).
type Entry struct {
	// X, Y is the region position within the task, in region units.
	X, Y int
	// Logic lists present members' logic payloads in member order.
	Logic []LogicItem
	// Raw selects the fallback coding; Conns is then empty and RawBits
	// holds each actual member's routing bits in member order.
	Raw     bool
	Conns   []Conn
	RawBits []*bits.Vec
}

// VBS is a complete Virtual Bit-Stream for one hardware task.
type VBS struct {
	// P is the macro architecture the task was compiled for.
	P arch.Params
	// Cluster is the coding granularity c (1 = one macro per entry).
	Cluster int
	// TaskW, TaskH are the task dimensions in macros.
	TaskW, TaskH int
	// Entries lists used regions in row-major position order.
	Entries []Entry
}

// Validate checks structural sanity of the container.
func (v *VBS) Validate() error {
	if err := v.P.Validate(); err != nil {
		return err
	}
	if v.Cluster < 1 {
		return fmt.Errorf("core: cluster size %d", v.Cluster)
	}
	if v.TaskW < 1 || v.TaskH < 1 {
		return fmt.Errorf("core: task %dx%d", v.TaskW, v.TaskH)
	}
	wR, hR := v.RegionsW(), v.RegionsH()
	prev := -1
	for i := range v.Entries {
		e := &v.Entries[i]
		if e.X < 0 || e.X >= wR || e.Y < 0 || e.Y >= hR {
			return fmt.Errorf("core: entry %d at (%d,%d) outside %dx%d regions", i, e.X, e.Y, wR, hR)
		}
		pos := e.Y*wR + e.X
		if pos <= prev {
			return fmt.Errorf("core: entries not in row-major order at %d", i)
		}
		prev = pos
		cw, ch := v.RegionDims(e.X, e.Y)
		for _, li := range e.Logic {
			j, ic := li.Member/v.Cluster, li.Member%v.Cluster
			if ic >= cw || j >= ch {
				return fmt.Errorf("core: entry %d logic member %d outside %dx%d region", i, li.Member, cw, ch)
			}
			if li.Data == nil || li.Data.Len() != v.P.NLB() {
				return fmt.Errorf("core: entry %d logic member %d payload malformed", i, li.Member)
			}
		}
		if e.Raw {
			if len(e.Conns) != 0 {
				return fmt.Errorf("core: entry %d is raw but has connections", i)
			}
			if len(e.RawBits) != cw*ch {
				return fmt.Errorf("core: entry %d raw payload count %d, want %d", i, len(e.RawBits), cw*ch)
			}
			for _, rb := range e.RawBits {
				if rb == nil || rb.Len() != v.P.NRaw()-v.P.NLB() {
					return fmt.Errorf("core: entry %d raw payload malformed", i)
				}
			}
		} else if len(e.Conns) > v.MaxRoutes() {
			return fmt.Errorf("core: entry %d has %d connections, field holds %d", i, len(e.Conns), v.MaxRoutes())
		}
	}
	return nil
}

// RegionsW returns the task width in regions, ceil(TaskW/Cluster).
func (v *VBS) RegionsW() int { return (v.TaskW + v.Cluster - 1) / v.Cluster }

// RegionsH returns the task height in regions.
func (v *VBS) RegionsH() int { return (v.TaskH + v.Cluster - 1) / v.Cluster }

// RegionDims returns the actual member columns and rows of region
// (rx, ry), accounting for truncation at the task edge.
func (v *VBS) RegionDims(rx, ry int) (cw, ch int) {
	cw = v.TaskW - rx*v.Cluster
	if cw > v.Cluster {
		cw = v.Cluster
	}
	ch = v.TaskH - ry*v.Cluster
	if ch > v.Cluster {
		ch = v.Cluster
	}
	return cw, ch
}

// Region returns the devirt region shape of region (rx, ry).
func (v *VBS) Region(rx, ry int) devirt.Region {
	cw, ch := v.RegionDims(rx, ry)
	return devirt.Region{P: v.P, Nominal: v.Cluster, CW: cw, CH: ch}
}

// MBits returns the connection endpoint width M for this VBS.
func (v *VBS) MBits() int {
	return devirt.Region{P: v.P, Nominal: v.Cluster, CW: 1, CH: 1}.MBits()
}

// RouteCountBits returns the width of the per-entry route count field,
// ceil(log2(2*W*c)) (Table I generalized to clusters).
func (v *VBS) RouteCountBits() int { return bits.CeilLog2(2 * v.P.W * v.Cluster) }

// MaxRoutes returns the largest representable route count.
func (v *VBS) MaxRoutes() int { return 1<<uint(v.RouteCountBits()) - 1 }

// CoordBits returns the width of the task width/height fields.
func (v *VBS) CoordBits() int {
	m := v.TaskW
	if v.TaskH > m {
		m = v.TaskH
	}
	return bits.CeilLog2(m)
}

// RegionCoordBits returns the width of entry position fields.
func (v *VBS) RegionCoordBits() int {
	m := v.RegionsW()
	if v.RegionsH() > m {
		m = v.RegionsH()
	}
	return bits.CeilLog2(m)
}

// CountBits returns the width of the entry count field.
func (v *VBS) CountBits() int {
	return bits.CeilLog2(v.RegionsW()*v.RegionsH() + 1)
}

// HeaderSizeBits returns the header size in the paper-ideal accounting.
func (v *VBS) HeaderSizeBits() int { return 2*v.CoordBits() + v.CountBits() }

// EntrySizeBits returns one entry's size in bits.
func (v *VBS) EntrySizeBits(e *Entry) int {
	c := v.Cluster
	n := 2*v.RegionCoordBits() + c*c + 1 // position, bitmap, mode
	n += len(e.Logic) * v.P.NLB()
	if e.Raw {
		for range e.RawBits {
			n += v.P.NRaw() - v.P.NLB()
		}
	} else {
		n += v.RouteCountBits()
		n += len(e.Conns) * 2 * v.MBits()
	}
	return n
}

// Size returns the total VBS size in bits under the paper-ideal
// accounting (no container preamble, no byte padding). This is the
// quantity plotted in Figures 4 and 5.
func (v *VBS) Size() int {
	n := v.HeaderSizeBits()
	for i := range v.Entries {
		n += v.EntrySizeBits(&v.Entries[i])
	}
	return n
}

// RawSizeBits returns the size of the equivalent raw bit-stream,
// TaskW × TaskH × Nraw, the paper's comparison baseline.
func (v *VBS) RawSizeBits() int { return v.TaskW * v.TaskH * v.P.NRaw() }

// CompressionRatio returns Size/RawSizeBits: the "percent of the
// original raw bit-stream size" metric of Figures 4 and 5 (smaller is
// better; 0.41 means the VBS is 41% of the raw size).
func (v *VBS) CompressionRatio() float64 {
	return float64(v.Size()) / float64(v.RawSizeBits())
}

// MemBytes returns the heap a parsed VBS keeps alive: the struct, its
// entries and every connection, logic and raw payload behind them. It
// is a pure function of the container's counts (Parse's flat layout
// has no per-object slack to guess at), which is what lets a store
// bound its memory by it.
func (v *VBS) MemBytes() int {
	n := int(unsafe.Sizeof(*v)) + len(v.Entries)*int(unsafe.Sizeof(Entry{}))
	for i := range v.Entries {
		e := &v.Entries[i]
		n += len(e.Conns) * int(unsafe.Sizeof(Conn{}))
		for _, li := range e.Logic {
			n += int(unsafe.Sizeof(li)) + li.Data.MemBytes()
		}
		for _, rb := range e.RawBits {
			n += int(unsafe.Sizeof(rb)) + rb.MemBytes()
		}
	}
	return n
}

// CompressionFactor returns RawSizeBits/Size (the "2.5x" style figure).
func (v *VBS) CompressionFactor() float64 {
	return float64(v.RawSizeBits()) / float64(v.Size())
}
