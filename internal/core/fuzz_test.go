package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/midset"
)

// maxMemPerByte bounds what Parse may keep alive per container byte.
// The worst case is a degenerate architecture whose entries are five
// bits each (two 1-bit coordinates, a 1-bit bitmap, mode, a 1-bit
// route count) behind a 96-byte Entry: 154 bytes per byte. Real
// containers sit near 10.
const maxMemPerByte = 160

// FuzzParse feeds core.Parse what a socket or a disk may hand it,
// seeded with the benchmark's 26 containers (8 small, 18 mid). Parse
// must never panic and never allocate beyond a multiple of the input's
// own length, whether it accepts or rejects (the flat arrays are sized
// from payload bits proven present, never from a count field alone);
// what it accepts must re-encode and re-parse to an equal VBS.
func FuzzParse(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		data, err := loadgen.GenTask(seed, midset.ArchW, midset.ArchK)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	mid, err := midset.Containers()
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range mid {
		f.Add(c.Data)
	}
	f.Add(countWithoutPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := core.Parse(data)
		runtime.ReadMemStats(&after)
		// Accepted or not: the heap Parse went through is bounded by the
		// input (twice over: Validate and error values allocate a little,
		// and the slack absorbs the fuzz worker's own bookkeeping).
		if spent := after.TotalAlloc - before.TotalAlloc; spent > uint64(2*maxMemPerByte*len(data)+64<<10) {
			t.Fatalf("parsing %d bytes allocated %d (err %v)", len(data), spent, err)
		}
		if err != nil {
			return
		}
		if mem := v.MemBytes(); mem > maxMemPerByte*len(data) {
			t.Fatalf("%d-byte container retains %d bytes parsed", len(data), mem)
		}
		again, err := v.Encode()
		if err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		back, err := core.Parse(again)
		if err != nil {
			t.Fatalf("re-encoded container does not parse: %v", err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Fatal("re-encoded container parses to a different VBS")
		}
		if final, err := back.Encode(); err != nil || !bytes.Equal(final, again) {
			t.Fatalf("encoding is not a fixed point (err %v)", err)
		}
	})
}

// countWithoutPayload is a well-formed preamble and header claiming
// the largest task and entry count the fields can hold (65535² entries)
// followed by no entries at all: the input that sizes arrays from a
// count field would answer with a 400 GB allocation.
func countWithoutPayload() []byte {
	preamble := []byte{'V', 'B', 'S', '1', 1, 0, midset.ArchW, midset.ArchK, 1, 0xff, 0xff, 0xff, 0xff}
	w := bits.NewWriter(64)
	w.WriteUint(0xfffe, 16) // width-1
	w.WriteUint(0xfffe, 16) // height-1
	w.WriteUint(0xffff*0xffff, 32)
	return append(preamble, w.Bytes()...)
}
