package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldWidth(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{16, 4}, {17, 5}, {28, 5}, {40, 6}, {88, 7}, {256, 8}, {257, 9},
	}
	for _, c := range cases {
		if got := CeilLog2(c.n); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCeilLog2MatchesPaperExamples(t *testing.T) {
	// Paper, Section II-B: W=5, L=7 gives M = ceil(log2(4W+L+1)) = 5.
	if got := CeilLog2(4*5 + 7 + 1); got != 5 {
		t.Errorf("M for W=5,L=7 = %d, want 5", got)
	}
	// At the normalized W=20 the code space is 88 values -> 7 bits.
	if got := CeilLog2(4*20 + 7 + 1); got != 7 {
		t.Errorf("M for W=20,L=7 = %d, want 7", got)
	}
}

func TestWriterSingleBits(t *testing.T) {
	var w Writer
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.nbit != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.nbit, len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadUint(1)
		if err != nil {
			t.Fatalf("ReadUint(1) at bit %d: %v", i, err)
		}
		if (got == 1) != want {
			t.Errorf("bit %d = %v, want %v", i, got, want)
		}
	}
}

func TestWriteUintRoundTrip(t *testing.T) {
	var w Writer
	values := []struct {
		v     uint64
		width int
	}{
		{0, 0}, {1, 1}, {0, 1}, {5, 3}, {284, 9}, {1023, 10}, {1, 64},
		{0xdeadbeef, 32}, {1<<63 - 1, 63},
	}
	for _, c := range values {
		w.WriteUint(c.v, c.width)
	}
	r := NewReader(w.Bytes())
	for _, c := range values {
		got, err := r.ReadUint(c.width)
		if err != nil {
			t.Fatalf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("round-trip %d-bit value = %d, want %d", c.width, got, c.v)
		}
	}
}

func TestWriteUintOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on field overflow")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

func TestWriteUintBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid width")
		}
	}()
	var w Writer
	w.WriteUint(0, 65)
}

func TestReaderOutOfBits(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadUint(8); err != nil {
		t.Fatalf("ReadUint(8): %v", err)
	}
	if _, err := r.ReadUint(1); err != ErrOutOfBits {
		t.Errorf("ReadUint past end: err = %v, want ErrOutOfBits", err)
	}
	if _, err := r.ReadVec(1); err != ErrOutOfBits {
		t.Errorf("ReadVec past end: err = %v, want ErrOutOfBits", err)
	}
}

func TestReaderBadWidth(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if _, err := r.ReadUint(65); err == nil {
		t.Error("ReadUint(65) should fail")
	}
	if _, err := r.ReadUint(-1); err == nil {
		t.Error("ReadUint(-1) should fail")
	}
}

func TestAlign(t *testing.T) {
	var w Writer
	w.WriteUint(3, 3)
	w.Align()
	if w.nbit != 8 {
		t.Fatalf("Len after align = %d, want 8", w.nbit)
	}
	w.WriteUint(0xab, 8)
	r := NewReader(w.Bytes())
	if _, err := r.ReadUint(3); err != nil {
		t.Fatal(err)
	}
	if err := r.Skip(5); err != nil { // the pad to the byte boundary
		t.Fatal(err)
	}
	got, err := r.ReadUint(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xab {
		t.Errorf("post-align byte = %#x, want 0xab", got)
	}
}

func TestVecBasics(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
	}
	if v.OnesCount() != len(idx) {
		t.Errorf("OnesCount = %d, want %d", v.OnesCount(), len(idx))
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Error("bit 64 should be cleared")
	}
	if v.OnesCount() != len(idx)-1 {
		t.Errorf("OnesCount after clear = %d", v.OnesCount())
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := NewVec(10)
	v.Set(3, true)
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone not equal")
	}
	c.Set(4, true)
	if v.Get(4) {
		t.Error("mutation of clone leaked into original")
	}
	if v.Equal(c) {
		t.Error("Equal should detect difference")
	}
}

func TestVecEqualLengthMismatch(t *testing.T) {
	a, b := NewVec(5), NewVec(6)
	if a.Equal(b) {
		t.Error("vectors of different length must not be equal")
	}
	if a.Equal(nil) {
		t.Error("nil comparison must be false")
	}
}

func TestVecOr(t *testing.T) {
	a, b := NewVec(70), NewVec(70)
	a.Set(0, true)
	b.Set(69, true)
	a.Or(b)
	if !a.Get(0) || !a.Get(69) {
		t.Error("Or lost bits")
	}
	if b.Get(0) {
		t.Error("Or mutated operand")
	}
}

func TestVecOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVec(3).Or(NewVec(4))
}

func TestVecClear(t *testing.T) {
	v := NewVec(100)
	for i := 0; i < 100; i += 7 {
		v.Set(i, true)
	}
	v.Clear()
	if v.OnesCount() != 0 {
		t.Error("Clear left bits set")
	}
}

func TestVecString(t *testing.T) {
	v := NewVec(4)
	v.Set(1, true)
	v.Set(3, true)
	if s := v.String(); s != "0101" {
		t.Errorf("String = %q, want 0101", s)
	}
}

func TestVecOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVec(4).Get(4)
}

func TestWriteVecRoundTrip(t *testing.T) {
	v := NewVec(19)
	for i := 0; i < 19; i += 3 {
		v.Set(i, true)
	}
	var w Writer
	w.WriteVec(v)
	if w.nbit != 19 {
		t.Fatalf("Len = %d", w.nbit)
	}
	r := NewReader(w.Bytes())
	got, err := r.ReadVec(19)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Errorf("ReadVec = %s, want %s", got, v)
	}
}

// Property: any sequence of (value, width) fields round-trips through
// Writer/Reader exactly.
func TestQuickFieldSequenceRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 1
		widths := make([]int, count)
		vals := make([]uint64, count)
		var w Writer
		for i := range widths {
			widths[i] = rng.Intn(64) + 1
			vals[i] = rng.Uint64() >> uint(64-widths[i])
			w.WriteUint(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range widths {
			got, err := r.ReadUint(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a Vec round-trips through WriteVec/ReadVec for any size and
// random contents.
func TestQuickVecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n % 600)
		v := NewVec(size)
		for i := 0; i < size; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		var w Writer
		w.WriteVec(v)
		got, err := NewReader(w.Bytes()).ReadVec(size)
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: OnesCount equals a naive per-bit count.
func TestQuickOnesCount(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%500) + 1
		v := NewVec(size)
		naive := 0
		for i := 0; i < size; i++ {
			b := rng.Intn(3) == 0
			v.Set(i, b)
			if b {
				naive++
			}
		}
		return v.OnesCount() == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriterUint(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if w.nbit > 1<<16 {
			w.buf, w.nbit = w.buf[:0], 0
		}
		w.WriteUint(uint64(i)&0x7f, 7)
	}
}

func BenchmarkVecSetGet(b *testing.B) {
	v := NewVec(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Set(i%1024, i&1 == 0)
		_ = v.Get((i * 7) % 1024)
	}
}

// TestOrAtMatchesBitLoop checks the word-level merge against the
// obvious per-bit reference for aligned and unaligned offsets,
// including offsets that make source words straddle destination words.
func TestOrAtMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		dstLen := rng.Intn(400) + 1
		srcLen := rng.Intn(dstLen + 1)
		off := 0
		if dstLen > srcLen {
			off = rng.Intn(dstLen - srcLen + 1)
		}
		dst := NewVec(dstLen)
		src := NewVec(srcLen)
		for i := 0; i < dstLen; i++ {
			dst.Set(i, rng.Intn(2) == 0)
		}
		for i := 0; i < srcLen; i++ {
			src.Set(i, rng.Intn(2) == 0)
		}
		want := dst.Clone()
		for i := 0; i < srcLen; i++ {
			if src.Get(i) {
				want.Set(off+i, true)
			}
		}
		dst.OrAt(src, off)
		if !dst.Equal(want) {
			t.Fatalf("trial %d: OrAt(len %d, off %d) into len %d differs", trial, srcLen, off, dstLen)
		}
	}
}

func TestOrAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OrAt past the end should panic")
		}
	}()
	NewVec(64).OrAt(NewVec(10), 60)
}

// TestIntersectsMatchesBitLoop checks the word-level AND-any against
// the per-bit reference, over lengths on both sides of word boundaries
// so the last word's spare bits are exercised, and with a hit confined
// to the very last bit.
func TestIntersectsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 600; trial++ {
		n := []int{0, 1, 63, 64, 65, 127, 128, 129, 1004}[trial%9]
		if trial >= 300 {
			n = rng.Intn(400)
		}
		a, b := NewVec(n), NewVec(n)
		// Sparse vectors, so both verdicts occur.
		for i := 0; i < n; i++ {
			a.Set(i, rng.Intn(8) == 0)
			b.Set(i, rng.Intn(8) == 0)
		}
		if trial%4 == 0 && n > 0 {
			a.Clear()
			a.Set(n-1, true)
		}
		want := false
		for i := 0; i < n; i++ {
			if a.Get(i) && b.Get(i) {
				want = true
			}
		}
		if got := a.Intersects(b); got != want {
			t.Fatalf("trial %d (len %d): Intersects = %v, bit loop = %v", trial, n, got, want)
		}
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("trial %d: Intersects is not symmetric", trial)
		}
	}
}

func TestIntersectsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intersects on different lengths should panic")
		}
	}()
	NewVec(64).Intersects(NewVec(65))
}

// TestMakeVecsReadIntoAtAnyOffset: vectors carved from one slab are
// independent Vecs, and ReadInto fills them from any bit offset exactly
// as a per-bit read would — spare bits of the last word stay zero, the
// invariant OrAt and Equal rely on.
func TestMakeVecsReadIntoAtAnyOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 63, 64, 65, 128, 200} {
		for off := 0; off < 9; off++ {
			const count = 5
			var w Writer
			w.WriteUint(0, off)
			want := make([]*Vec, count)
			for i := range want {
				want[i] = NewVec(n)
				for b := 0; b < n; b++ {
					want[i].Set(b, rng.Intn(2) == 1)
				}
				w.WriteVec(want[i])
			}
			w.WriteUint(0x5, 3) // trailing field: reads must not overrun
			r := NewReader(w.Bytes())
			if err := r.Skip(off); err != nil {
				t.Fatal(err)
			}
			vecs := MakeVecs(count, n)
			for i := range vecs {
				if err := r.ReadInto(&vecs[i]); err != nil {
					t.Fatalf("n=%d off=%d vec %d: %v", n, off, i, err)
				}
			}
			for i := range vecs {
				if !vecs[i].Equal(want[i]) || vecs[i].OnesCount() != want[i].OnesCount() {
					t.Fatalf("n=%d off=%d vec %d: %s, want %s", n, off, i, &vecs[i], want[i])
				}
			}
			if tail, err := r.ReadUint(3); err != nil || tail != 0x5 {
				t.Fatalf("n=%d off=%d: trailing field %d, %v", n, off, tail, err)
			}
		}
	}
	r := NewReader([]byte{0xff})
	if err := r.Skip(9); err != ErrOutOfBits {
		t.Errorf("Skip past end: %v", err)
	}
	if err := r.ReadInto(NewVec(9)); err != ErrOutOfBits {
		t.Errorf("ReadInto past end: %v", err)
	}
}
