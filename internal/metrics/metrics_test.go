package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vbs_test_seconds", "t", []float64{1, 2, 5})

	// A value equal to an upper bound lands in that bucket (le
	// semantics), one epsilon above lands in the next.
	h.Observe(1)               // le=1
	h.Observe(1.0000001)       // le=2
	h.Observe(2)               // le=2
	h.Observe(4.999)           // le=5
	h.Observe(5)               // le=5
	h.Observe(5.001)           // +Inf
	h.Observe(math.MaxFloat64) // +Inf

	snap := h.Snapshot()
	wantUpper := []float64{1, 2, 5, math.Inf(1)}
	wantCum := []uint64{1, 3, 5, 7}
	if len(snap.Buckets) != len(wantUpper) {
		t.Fatalf("got %d buckets, want %d", len(snap.Buckets), len(wantUpper))
	}
	for i, b := range snap.Buckets {
		if b.Upper != wantUpper[i] || b.Count != wantCum[i] {
			t.Errorf("bucket %d: got (%v, %d), want (%v, %d)",
				i, b.Upper, b.Count, wantUpper[i], wantCum[i])
		}
	}
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
}

func TestHistogramExplicitInfBucket(t *testing.T) {
	r := NewRegistry()
	// A +Inf bound passed explicitly must collapse into the implicit
	// +Inf bucket, not produce two.
	h := r.Histogram("vbs_test_seconds", "t", []float64{1, math.Inf(1)})
	h.Observe(0.5)
	h.Observe(3)
	snap := h.Snapshot()
	if len(snap.Buckets) != 2 {
		t.Fatalf("got %d buckets, want 2 (le=1, +Inf)", len(snap.Buckets))
	}
	if snap.Buckets[1].Count != 2 || !math.IsInf(snap.Buckets[1].Upper, +1) {
		t.Errorf("+Inf bucket = %+v, want count 2", snap.Buckets[1])
	}
}

func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vbs_test_seconds", "t", []float64{1})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(2)
	if got := h.Snapshot().Sum; math.Abs(got-2.75) > 1e-9 {
		t.Errorf("sum = %v, want 2.75", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vbs_test_seconds", "t", []float64{0.5})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					h.Observe(0.25)
				} else {
					h.Observe(0.75)
				}
				if i%100 == 0 {
					_ = h.Snapshot() // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Errorf("count = %d, want %d", snap.Count, workers*per)
	}
	if got := snap.Buckets[0].Count; got != workers*per/2 {
		t.Errorf("le=0.5 bucket = %d, want %d", got, workers*per/2)
	}
	if got := snap.Buckets[1].Count; got != workers*per {
		t.Errorf("+Inf bucket = %d, want %d", got, workers*per)
	}
	wantSum := float64(workers*per/2)*0.25 + float64(workers*per/2)*0.75
	if math.Abs(snap.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("vbs_test_total", "t", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeVec("vbs_test_total", "t", "k")
}

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("vbs_test_ops_total", "ops served", func() float64 { return 3 })
	g := r.GaugeVec("vbs_test_tasks", "live tasks by node", "node")
	g.With("a").Set(7)
	g.With("b").Set(1)
	h := r.HistogramVec("vbs_test_op_duration_seconds", "latency", []float64{0.1, 1}, "op")
	h.With("load").Observe(0.05)
	h.With("load").Observe(0.5)

	out := r.Render()
	for _, want := range []string{
		"# HELP vbs_test_ops_total ops served",
		"# TYPE vbs_test_ops_total counter",
		"vbs_test_ops_total 3",
		"# TYPE vbs_test_tasks gauge",
		`vbs_test_tasks{node="a"} 7`,
		`vbs_test_tasks{node="b"} 1`,
		"# TYPE vbs_test_op_duration_seconds histogram",
		`vbs_test_op_duration_seconds_bucket{op="load",le="0.1"} 1`,
		`vbs_test_op_duration_seconds_bucket{op="load",le="1"} 2`,
		`vbs_test_op_duration_seconds_bucket{op="load",le="+Inf"} 2`,
		`vbs_test_op_duration_seconds_count{op="load"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q\n--- got ---\n%s", want, out)
		}
	}
}

func TestOnCollectRefreshesGauges(t *testing.T) {
	r := NewRegistry()
	level := 1.0
	g := r.GaugeVec("vbs_test_level", "t", "k")
	r.OnCollect(func() { g.With("a").Set(level) })
	if !strings.Contains(r.Render(), "vbs_test_level{k=\"a\"} 1\n") {
		t.Fatal("collect hook did not run")
	}
	level = 42
	if !strings.Contains(r.Render(), "vbs_test_level{k=\"a\"} 42\n") {
		t.Fatal("collect hook result not re-rendered")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("vbs_test_info", "t", "name")
	v.With(`a"b\c`).Set(1)
	out := r.Render()
	want := `vbs_test_info{name="a\"b\\c"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Errorf("render missing %q in:\n%s", want, out)
	}
	// And the parser must invert the escaping.
	samples, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := Find(samples, "vbs_test_info", map[string]string{"name": `a"b\c`}); !ok {
		t.Error("escaped label value did not round-trip")
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("vbs_test_total", "t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}
