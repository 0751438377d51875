package store

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/midset"
)

// freshMid mints a never-seen container from a mid-set base the way
// the benchmark's single_cold clients do: same routing, every LUT
// truth bit redrawn, so the size and the parsed footprint are the
// base's and the content address is new.
func freshMid(t testing.TB, base []byte, rng *rand.Rand) []byte {
	t.Helper()
	v, err := core.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Entries {
		for _, li := range v.Entries[i].Logic {
			for b := 0; b < li.Data.Len(); b++ {
				li.Data.Set(b, rng.Intn(2) == 1)
			}
		}
	}
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStoreCapBoundsRetainedHeap: the capacity must bound what the
// store keeps alive, not just the container bytes — a parsed VBS is
// several times its container. Fresh mid containers are admitted until
// well past the first eviction; the live heap may grow by the cap plus
// bookkeeping slack (map, list, allocator rounding), not by a multiple.
func TestStoreCapBoundsRetainedHeap(t *testing.T) {
	bases, err := midset.Containers()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const capBytes = 4 << 20
	s := NewTiered(capBytes, nil)
	// One admission per base first: routing graphs are built and cached
	// process-wide on first sight of a region shape, which is not the
	// store's memory.
	for _, b := range bases {
		if _, _, err := s.Put(freshMid(t, b.Data, rng)); err != nil {
			t.Fatal(err)
		}
	}
	before := heapAlloc()
	charged := s.Bytes()
	admitted := s.Len()
	// Until evictions have started and half of everything admitted is gone.
	for s.Len() == admitted || admitted < 2*s.Len() {
		if _, _, err := s.Put(freshMid(t, bases[rng.Intn(len(bases))].Data, rng)); err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	grown := int64(heapAlloc()) - int64(before)
	t.Logf("grown %d charged %d resident %d admitted %d", grown, s.Bytes()-charged, s.Len(), admitted)
	if s.Bytes() > capBytes {
		t.Errorf("store charges %d bytes over its %d cap", s.Bytes(), capBytes)
	}
	if limit := int64(capBytes-charged) * 3 / 2; grown > limit {
		t.Errorf("live heap grew %d bytes holding %d of %d admitted containers; cap left %d, limit %d",
			grown, s.Len(), admitted, capBytes-charged, limit)
	}
	// The charge must not be a gross over-estimate either, or the cap
	// would waste the memory it was given.
	if grown < int64(capBytes-charged)/2 {
		t.Errorf("live heap grew only %d bytes for %d charged", grown, s.Bytes()-charged)
	}
	runtime.KeepAlive(s)
}

// TestMeanCompressionRatioMatchesRecomputedMean drives a bounded store
// through a random put / evict / delete sequence and checks after
// every step that the O(1) running mean equals the mean recomputed
// from the resident entries.
func TestMeanCompressionRatioMatchesRecomputedMean(t *testing.T) {
	bases, err := midset.Containers()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	s := NewTiered(12*retained(t, bases[0].Data), nil) // a dozen residents: puts evict
	var known []Digest
	for step := 0; step < 400; step++ {
		switch {
		case rng.Intn(4) == 0 && len(known) > 0: // delete (often of an already evicted digest)
			i := rng.Intn(len(known))
			_ = s.Delete(known[i]) // ErrNotFound when evicted: still a step
			known = append(known[:i], known[i+1:]...)
		case rng.Intn(3) == 0: // base container, frequently a re-put
			ent, _, err := s.Put(bases[rng.Intn(len(bases))].Data)
			if err != nil {
				t.Fatal(err)
			}
			known = append(known, ent.Digest)
		default:
			ent, _, err := s.Put(freshMid(t, bases[rng.Intn(len(bases))].Data, rng))
			if err != nil {
				t.Fatal(err)
			}
			known = append(known, ent.Digest)
		}
		s.mu.Lock()
		sum, n := 0.0, 0
		for el := s.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*Entry).VBS.CompressionRatio()
			n++
		}
		s.mu.Unlock()
		want := 0.0
		if n > 0 {
			want = sum / float64(n)
		}
		if got := s.MeanCompressionRatio(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("step %d: mean ratio %v over %d residents, recomputed %v", step, got, n, want)
		}
	}
	if s.Len() == 0 || s.Len() >= len(known) {
		t.Fatalf("sequence never evicted: %d resident of %d known", s.Len(), len(known))
	}
}
