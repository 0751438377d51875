package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	u := New(10)
	if len(u.parent) != 10 {
		t.Fatalf("len = %d", len(u.parent))
	}
	for i := 0; i < 10; i++ {
		if u.Find(i) != i {
			t.Errorf("singleton %d has root %d", i, u.Find(i))
		}
		if u.SetSize(i) != 1 {
			t.Errorf("singleton size %d", u.SetSize(i))
		}
	}
	if !u.Union(1, 2) {
		t.Error("first union should merge")
	}
	if u.Union(1, 2) {
		t.Error("second union should be a no-op")
	}
	if u.Find(1) != u.Find(2) || u.Find(1) == u.Find(3) {
		t.Error("Same wrong")
	}
	u.Union(2, 3)
	if u.Find(1) != u.Find(3) {
		t.Error("transitivity lost")
	}
	if u.SetSize(1) != 3 {
		t.Errorf("set size = %d, want 3", u.SetSize(1))
	}
}

// Property: union-find agrees with a naive component labelling under
// random union sequences.
func TestQuickAgainstNaive(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%40) + 2
		rng := rand.New(rand.NewSource(seed))
		u := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for op := 0; op < 3*n; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			u.Union(a, b)
			relabel(label[a], label[b])
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (u.Find(i) == u.Find(j)) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := New(1024)
		for j := 0; j < 1023; j++ {
			u.Union(j, j+1)
		}
		if u.SetSize(0) != 1024 {
			b.Fatal("bad size")
		}
	}
}
