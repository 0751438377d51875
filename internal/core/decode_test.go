package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/devirt"
)

// TestDecodeVariantsBitIdentical: every decode path — sequential
// in-place, parallel at several worker counts, and repeated decodes
// reusing the same pooled routers —
// must produce exactly the same bits, across cluster sizes including
// ones that truncate edge regions. This is the decoder-side equivalence
// property of the zero-allocation hot path.
func TestDecodeVariantsBitIdentical(t *testing.T) {
	f := runFlow(t, 21, 30, 7, 8, 6)
	for _, cluster := range []int{1, 2, 3, 4} {
		v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: cluster})
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		ref, err := v.Decode(1)
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := v.Decode(workers)
			if err != nil {
				t.Fatalf("cluster %d workers %d: %v", cluster, workers, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("cluster %d: parallel decode (workers=%d) differs", cluster, workers)
			}
		}
		// Repeated decodes exercise pooled-router reuse; results must not
		// drift with reuse.
		for round := 0; round < 3; round++ {
			again, err := v.Decode(1)
			if err != nil {
				t.Fatalf("cluster %d round %d: %v", cluster, round, err)
			}
			if !again.Equal(ref) {
				t.Fatalf("cluster %d round %d: repeated decode differs", cluster, round)
			}
		}
	}
}

// TestDecodeIntoSteadyStateAllocs pins the whole-task decode hot path:
// decoding into a pre-allocated target must allocate (almost) nothing
// once routers are pooled and graphs cached. The tolerance covers pool
// evictions under GC pressure; a real regression (per-entry router or
// config materialization) is orders of magnitude above it and fails
// `go test ./...`.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	f := runFlow(t, 22, 25, 6, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 2})
	if err != nil {
		t.Fatal(err)
	}
	target := bitstream.New(v.P, arch.Grid{Width: v.TaskW, Height: v.TaskH})
	decode := func() {
		if err := v.DecodeInto(target, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm pooled routers for every region shape of this VBS
	if avg := testing.AllocsPerRun(50, decode); avg > 4 {
		t.Errorf("steady-state DecodeInto allocates %.2f times per run, want ~0", avg)
	}
}

// TestParallelDecodeStopsAtFirstFailure: a container whose entry k names
// an I/O code outside the region's code space (bytes from a socket can)
// must not get the rest of its entries routed. Entries beyond k are held
// back until entry k has failed, so at most the workers-1 of them
// already handed out can still run: the fan-out starts at most
// k + workers entries, and at every worker count the error is the one
// the sequential decode returns.
func TestParallelDecodeStopsAtFirstFailure(t *testing.T) {
	f := runFlow(t, 21, 30, 7, 8, 6)
	v, _, err := Encode(f.d, f.pl, f.res, EncodeOptions{Cluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := -1
	for i := 3; i < len(v.Entries); i++ {
		if e := &v.Entries[i]; len(e.Conns) > 0 {
			e.Conns[0].In = devirt.IOCode(v.Region(e.X, e.Y).NumIOCodes())
			k = i
			break
		}
	}
	if k < 0 || len(v.Entries) < k+12 {
		t.Fatalf("flow too small: %d entries, bad entry %d", len(v.Entries), k)
	}
	target := bitstream.New(v.P, arch.Grid{Width: v.TaskW, Height: v.TaskH})
	want := v.DecodeInto(target, 0, 0, 1)
	if want == nil || !strings.Contains(want.Error(), "out of range") {
		t.Fatalf("sequential decode of the malformed container: %v", want)
	}
	for _, workers := range []int{1, 2, 8} {
		var started atomic.Int64
		kFailed := make(chan struct{})
		err := v.eachEntryParallel(workers, func(i int) error {
			started.Add(1)
			if i > k {
				<-kFailed
			}
			err := v.decodeEntry(i, target, 0, 0)
			if i == k {
				close(kFailed)
			}
			return err
		})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("workers %d: error %v, want %v", workers, err, want)
		}
		if n := int(started.Load()); n > k+workers {
			t.Errorf("workers %d: %d entries started after entry %d failed, want at most %d", workers, n, k, k+workers)
		}
		if err := v.DecodeInto(target, 0, 0, workers); err == nil || err.Error() != want.Error() {
			t.Errorf("workers %d: DecodeInto error %v, want %v", workers, err, want)
		}
	}
}
