package store

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
)

// testVBS returns the encoded container of a minimal valid VBS.
func testVBS(t testing.TB, taskW int) []byte {
	t.Helper()
	v := &core.VBS{P: arch.Default(), Cluster: 1, TaskW: taskW, TaskH: 2}
	data, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// retained is what the RAM tier charges for a container.
func retained(t testing.TB, data []byte) int {
	t.Helper()
	v, err := core.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return len(data) + v.MemBytes()
}

func TestStorePut(t *testing.T) {
	s := NewTiered(0, nil)
	data := testVBS(t, 2)
	ent, existed, err := s.Put(data)
	if err != nil || existed {
		t.Fatalf("first Put: existed=%v err=%v", existed, err)
	}
	if ent.Digest != DigestOf(data) {
		t.Error("digest mismatch")
	}
	if ent.SizeBytes() != len(data) {
		t.Error("size mismatch")
	}
	// Same bytes: deduplicated.
	ent2, existed, err := s.Put(append([]byte(nil), data...))
	if err != nil || !existed {
		t.Fatalf("second Put: existed=%v err=%v", existed, err)
	}
	if ent2 != ent {
		t.Error("duplicate Put returned a different entry")
	}
	// Different task: new entry.
	if _, existed, err = s.Put(testVBS(t, 3)); err != nil || existed {
		t.Fatalf("third Put: existed=%v err=%v", existed, err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Bytes() <= 0 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if r := s.MeanCompressionRatio(); r <= 0 {
		t.Errorf("MeanCompressionRatio = %v", r)
	}
	if _, ok := s.Get(ent.Digest); !ok {
		t.Error("Get missed stored entry")
	}
}

func TestStoreRejectsMalformed(t *testing.T) {
	s := NewTiered(0, nil)
	if _, _, err := s.Put([]byte("not a vbs")); err == nil {
		t.Error("malformed container admitted")
	}
	if s.Len() != 0 {
		t.Error("malformed container stored")
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := DigestOf([]byte("x"))
	got, err := ParseDigest(d.String())
	if err != nil || got != d {
		t.Fatalf("round trip: %v %v", got, err)
	}
	if len(d.Short()) != 12 {
		t.Errorf("Short = %q", d.Short())
	}
	if _, err := ParseDigest("zz"); err == nil {
		t.Error("bad hex parsed")
	}
}

func TestCacheLRU(t *testing.T) {
	// Each value costs its own int; capacity 10.
	c := NewCache[int](10, func(v int) int64 { return int64(v) })
	d := func(i byte) Digest { return DigestOf([]byte{i}) }
	c.Put(d(1), 4)
	c.Put(d(2), 4)
	if v, ok := c.Get(d(1)); !ok || v != 4 {
		t.Fatal("miss on resident entry")
	}
	// Inserting 4 more evicts the LRU entry — d(2), since d(1) was
	// just touched.
	c.Put(d(3), 4)
	if _, ok := c.Get(d(2)); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(d(1)); !ok {
		t.Error("recently used entry evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Used != 8 {
		t.Errorf("stats = %+v", st)
	}
	// Oversized value: not admitted.
	c.Put(d(9), 11)
	if _, ok := c.Get(d(9)); ok {
		t.Error("oversized value admitted")
	}
	// Refresh changes cost in place.
	c.Put(d(1), 6)
	if c.Stats().Used != 10 {
		t.Errorf("Used after refresh = %d", c.Stats().Used)
	}
}

func TestCacheUnbounded(t *testing.T) {
	c := NewCache[string](0, nil)
	for i := 0; i < 100; i++ {
		c.Put(DigestOf([]byte{byte(i)}), "v")
	}
	if c.Stats().Entries != 100 || c.Stats().Evictions != 0 {
		t.Errorf("unbounded cache evicted: len=%d", c.Stats().Entries)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int](64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := DigestOf([]byte{byte(i % 97)})
				if i%3 == 0 {
					c.Put(k, g)
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlightCollapses(t *testing.T) {
	f := NewFlight[int]()
	var calls atomic.Int32
	release := make(chan struct{})
	d := DigestOf([]byte("k"))

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	sharedCount := atomic.Int32{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := f.Do(d, func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader. There
	// is no hard guarantee all 8 joined the same call, but all must
	// see the same value and the function must not run 8 times.
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d", i, v)
		}
	}
	if calls.Load() == 0 || calls.Load() > waiters {
		t.Errorf("fn ran %d times", calls.Load())
	}
	// After completion the key is clear: a fresh Do runs again.
	_, _, shared := f.Do(d, func() (int, error) { return 1, nil })
	if shared {
		t.Error("completed flight still shared")
	}
}

func TestStoreBoundedEviction(t *testing.T) {
	a, b, c := testVBS(t, 2), testVBS(t, 3), testVBS(t, 4)
	cap := retained(t, a) + retained(t, b)
	s := NewTiered(cap, nil)
	entA, _, err := s.Put(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b is the LRU, then overflow with c.
	if _, ok := s.Get(entA.Digest); !ok {
		t.Fatal("a missing")
	}
	if _, _, err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(DigestOf(b)); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := s.Get(entA.Digest); !ok {
		t.Error("recently used entry evicted")
	}
	if s.Bytes() > cap {
		t.Errorf("Bytes = %d over cap %d", s.Bytes(), cap)
	}
	// Re-Put of an evicted container re-admits it.
	if _, existed, err := s.Put(b); err != nil || existed {
		t.Errorf("re-Put after eviction: existed=%v err=%v", existed, err)
	}
}

func TestFlightPanicDoesNotWedge(t *testing.T) {
	f := NewFlight[int]()
	d := DigestOf([]byte("p"))
	func() {
		defer func() { _ = recover() }()
		_, _, _ = f.Do(d, func() (int, error) { panic("boom") })
	}()
	// The digest must be usable again, not blocked forever.
	done := make(chan struct{})
	go func() {
		v, err, _ := f.Do(d, func() (int, error) { return 7, nil })
		if v != 7 || err != nil {
			t.Errorf("post-panic Do = %d, %v", v, err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("flight wedged after panic")
	}
}
