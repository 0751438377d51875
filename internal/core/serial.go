package core

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/devirt"
)

// Container format: a small self-describing preamble (so a controller
// can parse a VBS file without out-of-band metadata), followed by the
// bit-exact Table I payload.
//
//	magic   "VBS1"     4 bytes
//	version uint8      currently 1
//	W       uint16     channel width
//	K       uint8      LUT size
//	cluster uint8      coding granularity c
//	taskW   uint16     task width in macros
//	taskH   uint16     task height in macros
//	payload bit fields per the package comment, zero-padded to a byte
const vbsMagic = "VBS1"

const vbsVersion = 1

// Encode serializes the VBS container.
func (v *VBS) Encode() ([]byte, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	header := make([]byte, 13)
	copy(header, vbsMagic)
	header[4] = vbsVersion
	binary.BigEndian.PutUint16(header[5:], uint16(v.P.W))
	header[7] = uint8(v.P.K)
	header[8] = uint8(v.Cluster)
	binary.BigEndian.PutUint16(header[9:], uint16(v.TaskW))
	binary.BigEndian.PutUint16(header[11:], uint16(v.TaskH))

	w := bits.NewWriter(v.Size())
	w.WriteUint(uint64(v.TaskW-1), v.CoordBits())
	w.WriteUint(uint64(v.TaskH-1), v.CoordBits())
	w.WriteUint(uint64(len(v.Entries)), v.CountBits())
	c := v.Cluster
	for i := range v.Entries {
		e := &v.Entries[i]
		w.WriteUint(uint64(e.X), v.RegionCoordBits())
		w.WriteUint(uint64(e.Y), v.RegionCoordBits())
		present := make([]bool, c*c)
		for _, li := range e.Logic {
			present[li.Member] = true
		}
		for _, p := range present {
			w.WriteBool(p)
		}
		for _, li := range e.Logic {
			w.WriteVec(li.Data)
		}
		w.WriteBool(e.Raw)
		if e.Raw {
			for _, rb := range e.RawBits {
				w.WriteVec(rb)
			}
		} else {
			w.WriteUint(uint64(len(e.Conns)), v.RouteCountBits())
			m := v.MBits()
			for _, cn := range e.Conns {
				w.WriteUint(uint64(cn.In), m)
				w.WriteUint(uint64(cn.Out), m)
			}
		}
	}
	w.Align()
	return append(header, w.Bytes()...), nil
}

// Parse reads a VBS container produced by Encode.
//
// The payload is walked twice. The first walk decodes only the fields
// that say how long the next one is, and so learns — from bits proven
// to be present — how many connections, logic payloads and raw
// payloads the container holds. The second walk fills flat backing
// arrays of exactly those sizes: one []Entry, one []Conn, one
// []LogicItem and one bits.MakeVecs slab per payload width, which the
// entries' slices and Data pointers are cut from. Nothing is allocated
// before the first walk has succeeded, so a container cannot make
// Parse allocate for payload it does not carry, and a parsed VBS is a
// handful of heap objects however many entries it has.
func Parse(data []byte) (*VBS, error) {
	if len(data) < 13 || string(data[:4]) != vbsMagic {
		return nil, fmt.Errorf("core: bad magic")
	}
	if data[4] != vbsVersion {
		return nil, fmt.Errorf("core: unsupported version %d", data[4])
	}
	v := &VBS{
		P: arch.Params{
			W: int(binary.BigEndian.Uint16(data[5:])),
			K: int(data[7]),
		},
		Cluster: int(data[8]),
		TaskW:   int(binary.BigEndian.Uint16(data[9:])),
		TaskH:   int(binary.BigEndian.Uint16(data[11:])),
	}
	if err := v.P.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if v.Cluster < 1 || v.TaskW < 1 || v.TaskH < 1 {
		return nil, fmt.Errorf("core: malformed preamble")
	}
	r := bits.NewReader(data[13:])
	tw, err := r.ReadUint(v.CoordBits())
	if err != nil {
		return nil, fmt.Errorf("core: header: %w", err)
	}
	th, err := r.ReadUint(v.CoordBits())
	if err != nil {
		return nil, fmt.Errorf("core: header: %w", err)
	}
	if int(tw)+1 != v.TaskW || int(th)+1 != v.TaskH {
		return nil, fmt.Errorf("core: preamble/payload dimension mismatch")
	}
	count, err := r.ReadUint(v.CountBits())
	if err != nil {
		return nil, fmt.Errorf("core: header: %w", err)
	}
	if count > uint64(v.RegionsW()*v.RegionsH()) {
		return nil, fmt.Errorf("core: entry count %d exceeds region count", count)
	}
	w := v.widths()
	n, err := v.measure(fields{r: *r}, w, int(count))
	if err != nil {
		return nil, err
	}
	if err := v.fill(fields{r: *r}, w, int(count), n); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: parsed container invalid: %w", err)
	}
	return v, nil
}

// widths are the payload field widths of one container, computed once
// per parse instead of once per field.
type widths struct {
	coord, members, logic, raw, routes, code int
}

func (v *VBS) widths() widths {
	return widths{
		coord:   v.RegionCoordBits(),
		members: v.Cluster * v.Cluster,
		logic:   v.P.NLB(),
		raw:     v.P.NRaw() - v.P.NLB(),
		routes:  v.RouteCountBits(),
		code:    v.MBits(),
	}
}

// payloadCounts sizes the flat arrays of a parsed container.
type payloadCounts struct {
	conns, logic, raw int
}

// fields reads payload fields with a sticky error: after the first
// failure every read returns zero, and err/what keep what failed, so
// the walks check once per entry instead of once per field.
type fields struct {
	r    bits.Reader
	err  error
	what string
}

func (f *fields) fail(err error, what string) {
	if err != nil && f.err == nil {
		f.err, f.what = err, what
	}
}

func (f *fields) uint(width int, what string) uint64 {
	if f.err != nil {
		return 0
	}
	v, err := f.r.ReadUint(width)
	f.fail(err, what)
	return v
}

func (f *fields) bool(what string) bool { return f.uint(1, what) == 1 }

func (f *fields) skip(n int, what string) {
	if f.err == nil {
		f.fail(f.r.Skip(n), what)
	}
}

func (f *fields) vec(v *bits.Vec, what string) {
	if f.err == nil {
		f.fail(f.r.ReadInto(v), what)
	}
}

// position reads and range-checks an entry's region coordinates.
func (f *fields) position(v *VBS, w widths) (x, y int) {
	x, y = int(f.uint(w.coord, "position")), int(f.uint(w.coord, "position"))
	if f.err == nil && (x >= v.RegionsW() || y >= v.RegionsH()) {
		f.fail(fmt.Errorf("(%d,%d) out of range", x, y), "position")
	}
	return x, y
}

// measure is the sizing walk: it steps over count entries, skipping
// every payload, and returns how many connections, logic payloads and
// raw payloads they carry. It fails exactly where the container is
// short or an entry lies outside the task.
func (v *VBS) measure(f fields, w widths, count int) (payloadCounts, error) {
	var n payloadCounts
	for i := 0; i < count; i++ {
		x, y := f.position(v, w)
		present := 0
		for left := w.members; left > 0; left -= 64 {
			present += mathbits.OnesCount64(f.uint(min(left, 64), "bitmap"))
		}
		n.logic += present
		f.skip(present*w.logic, "logic")
		if f.bool("mode") {
			cw, ch := v.RegionDims(x, y)
			n.raw += cw * ch
			f.skip(cw*ch*w.raw, "raw payload")
		} else {
			k := int(f.uint(w.routes, "route count"))
			n.conns += k
			f.skip(k*2*w.code, "connections")
		}
		if f.err != nil {
			return n, fmt.Errorf("core: entry %d %s: %w", i, f.what, f.err)
		}
	}
	return n, nil
}

// fill is the second walk: it decodes count entries into flat arrays
// sized by measure and installs them as v.Entries.
func (v *VBS) fill(f fields, w widths, count int, n payloadCounts) error {
	if count == 0 {
		return nil
	}
	entries := make([]Entry, count)
	conns := make([]Conn, 0, n.conns)
	logic := make([]LogicItem, 0, n.logic)
	logicVecs := bits.MakeVecs(n.logic, w.logic)
	raws := make([]*bits.Vec, 0, n.raw)
	rawVecs := bits.MakeVecs(n.raw, w.raw)
	for i := range entries {
		e := &entries[i]
		e.X, e.Y = f.position(v, w)
		first := len(logic)
		for m := 0; m < w.members; m++ {
			if f.bool("bitmap") {
				logic = append(logic, LogicItem{Member: m, Data: &logicVecs[len(logic)]})
			}
		}
		if len(logic) > first {
			e.Logic = logic[first:len(logic):len(logic)]
		}
		for _, li := range e.Logic {
			f.vec(li.Data, "logic")
		}
		if e.Raw = f.bool("mode"); e.Raw {
			cw, ch := v.RegionDims(e.X, e.Y)
			first := len(raws)
			for m := 0; m < cw*ch; m++ {
				rb := &rawVecs[len(raws)]
				f.vec(rb, "raw payload")
				raws = append(raws, rb)
			}
			e.RawBits = raws[first:len(raws):len(raws)]
		} else if k := int(f.uint(w.routes, "route count")); k > 0 {
			first := len(conns)
			for ; k > 0; k-- {
				in, out := f.uint(w.code, "connection"), f.uint(w.code, "connection")
				conns = append(conns, Conn{In: devirt.IOCode(in), Out: devirt.IOCode(out)})
			}
			e.Conns = conns[first:len(conns):len(conns)]
		}
		if f.err != nil {
			return fmt.Errorf("core: entry %d %s: %w", i, f.what, f.err)
		}
	}
	v.Entries = entries
	return nil
}
