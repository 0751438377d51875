// Package bits provides bit-granular writers, readers and bit-vector
// utilities used by the raw bitstream and Virtual Bit-Stream formats.
//
// All multi-bit fields are written most-significant-bit first, matching
// the field layout of Table I in the paper, so that a field of width n
// holding value v occupies the next n bits with v's high bit first.
package bits

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// ErrOutOfBits is returned by Reader methods when the underlying buffer
// has fewer bits remaining than requested.
var ErrOutOfBits = errors.New("bits: read past end of stream")

// CeilLog2 returns ceil(log2(n)) for n >= 1, the form used by the
// paper's Table I field-size expressions: the bits needed to represent
// values in [0, n-1]. CeilLog2(0) and CeilLog2(1) are both 0: a field
// with a single possible value needs no bits.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Writer accumulates bits MSB-first into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Bytes returns the packed bytes. The final byte is zero-padded in its
// low-order bits. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteUint appends the width low-order bits of v, MSB first.
// It panics if width is negative, exceeds 64, or v does not fit,
// since any of those indicates a field-sizing bug in the caller.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bits: invalid field width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bits: value %d overflows %d-bit field", v, width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

// WriteBool appends a single-bit flag.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteVec appends every bit of v (v.Len() bits).
func (w *Writer) WriteVec(v *Vec) {
	for i := 0; i < v.n; i++ {
		w.WriteBit(v.Get(i))
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	for w.nbit%8 != 0 {
		w.WriteBit(false)
	}
}

// Reader consumes bits MSB-first from a byte buffer.
type Reader struct {
	buf  []byte
	pos  int // next bit index
	nbit int // total bits available
}

// NewReader returns a Reader over buf. All len(buf)*8 bits are readable.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf, nbit: len(buf) * 8}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadUint consumes width bits and returns them as an unsigned value.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bits: invalid field width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrOutOfBits
	}
	// Byte at a time: the unread low bits of the current byte, cut to
	// what the field still needs.
	var v uint64
	for n := width; n > 0; {
		avail := 8 - r.pos%8
		take := min(avail, n)
		b := uint64(r.buf[r.pos/8]) >> uint(avail-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | b
		r.pos += take
		n -= take
	}
	return v, nil
}

// Skip consumes n bits without decoding them.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.Remaining() < n {
		return ErrOutOfBits
	}
	r.pos += n
	return nil
}

// ReadVec consumes n bits into a fresh Vec.
func (r *Reader) ReadVec(n int) (*Vec, error) {
	if r.Remaining() < n {
		return nil, ErrOutOfBits
	}
	v := NewVec(n)
	return v, r.ReadInto(v)
}

// ReadInto consumes v.Len() bits into v, overwriting its contents.
// The stream is MSB-first and a Vec word holds bit i at position i%64,
// so each 64-bit field is bit-reversed into its word.
func (r *Reader) ReadInto(v *Vec) error {
	if r.Remaining() < v.n {
		return ErrOutOfBits
	}
	for i := range v.words {
		n := min(64, v.n-64*i)
		f, _ := r.ReadUint(n)
		v.words[i] = bits.Reverse64(f) >> uint(64-n)
	}
	return nil
}

// Vec is a fixed-length bit vector. Bit 0 is the first configuration
// bit in canonical order.
type Vec struct {
	words []uint64
	n     int
}

// NewVec returns an all-zero vector of n bits.
func NewVec(n int) *Vec {
	if n < 0 {
		panic("bits: negative Vec length")
	}
	return &Vec{words: make([]uint64, (n+63)/64), n: n}
}

// MakeVecs returns count all-zero vectors of n bits each, carved out of
// two allocations (the Vec values and one shared word array) instead
// of two per vector. Each element is an ordinary Vec; take its address
// to use it.
func MakeVecs(count, n int) []Vec {
	if count < 0 || n < 0 {
		panic("bits: negative MakeVecs size")
	}
	per := (n + 63) / 64
	words := make([]uint64, count*per)
	vecs := make([]Vec, count)
	for i := range vecs {
		vecs[i] = Vec{words: words[i*per : (i+1)*per : (i+1)*per], n: n}
	}
	return vecs
}

// Len returns the number of bits in the vector.
func (v *Vec) Len() int { return v.n }

// MemBytes returns the heap the vector occupies: its header and words.
func (v *Vec) MemBytes() int { return int(unsafe.Sizeof(*v)) + 8*len(v.words) }

// Get reports the value of bit i.
func (v *Vec) Get(i int) bool {
	v.check(i)
	return v.words[i/64]>>(uint(i)%64)&1 == 1
}

// Set assigns bit i.
func (v *Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, v.n))
	}
}

// OnesCount returns the number of set bits.
func (v *Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (v *Vec) Clone() *Vec {
	c := NewVec(v.n)
	copy(c.words, v.words)
	return c
}

// Equal reports whether two vectors have identical length and contents.
func (v *Vec) Equal(o *Vec) bool {
	if o == nil || v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether v&o has any set bit. Both vectors must
// have the same length. This is the placement layer's "is any of these
// switches on" primitive: o is a precomputed mask over a macro
// configuration.
func (v *Vec) Intersects(o *Vec) bool {
	if v.n != o.n {
		panic("bits: Intersects on vectors of different length")
	}
	for i, w := range v.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Or sets v to v|o. Both vectors must have the same length.
func (v *Vec) Or(o *Vec) {
	if v.n != o.n {
		panic("bits: Or on vectors of different length")
	}
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// OrAt ORs every bit of src into v starting at bit offset off:
// v[off+i] |= src[i] for i in [0, src.Len()). The merge runs word at a
// time (shifting when off is not word-aligned), relying on the Vec
// invariant that bits beyond Len() in the last word are zero — every
// constructor and mutator in this package preserves it. This is the
// decode hot path's merge primitive: routed switch words, logic
// payloads and raw fallbacks are OR-ed straight into the target
// configuration without any per-bit loop.
func (v *Vec) OrAt(src *Vec, off int) {
	if off < 0 || off+src.n > v.n {
		panic(fmt.Sprintf("bits: OrAt range [%d,%d) outside [0,%d)", off, off+src.n, v.n))
	}
	if src.n == 0 {
		return
	}
	w, sh := off/64, uint(off%64)
	if sh == 0 {
		for i, sw := range src.words {
			v.words[w+i] |= sw
		}
		return
	}
	for i, sw := range src.words {
		v.words[w+i] |= sw << sh
		// High part spills into the next word; it is zero at the vector
		// end because src's spare bits are zero.
		if hi := sw >> (64 - sh); hi != 0 {
			v.words[w+i+1] |= hi
		}
	}
}

// Clear zeroes every bit.
func (v *Vec) Clear() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// String renders the vector as a 0/1 string, bit 0 first. Intended for
// small vectors in tests and debug output.
func (v *Vec) String() string {
	b := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}
