package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
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
		ref, err := v.Decode()
		if err != nil {
			t.Fatalf("cluster %d: %v", cluster, err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := v.DecodeParallel(workers)
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
			again, err := v.Decode()
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
		if err := v.DecodeInto(target, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm pooled routers for every region shape of this VBS
	if avg := testing.AllocsPerRun(50, decode); avg > 4 {
		t.Errorf("steady-state DecodeInto allocates %.2f times per run, want ~0", avg)
	}
}
