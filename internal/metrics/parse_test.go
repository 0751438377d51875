package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vbs_test_total", "a counter")
	c.Add(5)
	h := r.HistogramVec("vbs_test_seconds", "a histogram", []float64{0.1, 1}, "op")
	h.With("load").Observe(0.05)
	h.With("load").Observe(0.5)
	h.With("load").Observe(3)

	samples, err := Parse(strings.NewReader(r.Render()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := Find(samples, "vbs_test_total", nil); !ok || v != 5 {
		t.Errorf("counter = %v/%v, want 5", v, ok)
	}
	bk := Buckets(samples, "vbs_test_seconds", map[string]string{"op": "load"})
	if len(bk) != 3 {
		t.Fatalf("got %d buckets, want 3", len(bk))
	}
	if bk[0].Count != 1 || bk[1].Count != 2 || bk[2].Count != 3 {
		t.Errorf("cumulative counts = %d,%d,%d, want 1,2,3", bk[0].Count, bk[1].Count, bk[2].Count)
	}
	if !math.IsInf(bk[2].Upper, +1) {
		t.Errorf("last bucket bound = %v, want +Inf", bk[2].Upper)
	}
	if v, ok := Find(samples, "vbs_test_seconds_count", map[string]string{"op": "load"}); !ok || v != 3 {
		t.Errorf("_count = %v/%v, want 3", v, ok)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"vbs_ok 1\nnot a metric line at all !!!",
		`vbs_bad{le="0.1" 3`,
		"vbs_bad{x=unquoted} 1",
		"vbs_bad notanumber",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted garbage", bad)
		}
	}
}

func TestParseSkipsCommentsAndTimestamps(t *testing.T) {
	in := "# HELP x y\n# TYPE x counter\n\nx 3 1700000000000\n"
	samples, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(samples) != 1 || samples[0].Value != 3 {
		t.Fatalf("samples = %+v, want one x=3", samples)
	}
}

func TestSubtractBuckets(t *testing.T) {
	before := []Bucket{{0.1, 2}, {1, 5}, {math.Inf(1), 6}}
	after := []Bucket{{0.1, 4}, {1, 10}, {math.Inf(1), 12}}
	d := SubtractBuckets(before, after)
	if d == nil || d[0].Count != 2 || d[1].Count != 5 || d[2].Count != 6 {
		t.Fatalf("delta = %+v", d)
	}
	// Mismatched layouts refuse rather than mislead.
	if SubtractBuckets(before[:2], after) != nil {
		t.Error("layout mismatch not rejected")
	}
	if SubtractBuckets(after, before) != nil {
		t.Error("negative delta not rejected")
	}
}

func TestQuantile(t *testing.T) {
	// 100 observations: 50 in (0, 0.1], 40 in (0.1, 1], 10 above 1.
	buckets := []Bucket{{0.1, 50}, {1, 90}, {math.Inf(1), 100}}
	if got := Quantile(0.5, buckets); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("p50 = %v, want 0.1", got)
	}
	// p90 sits exactly at the le=1 bucket's cumulative count.
	if got := Quantile(0.9, buckets); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("p90 = %v, want 1.0", got)
	}
	// p99 lands in +Inf: clamp to the highest finite bound.
	if got := Quantile(0.99, buckets); got != 1 {
		t.Errorf("p99 = %v, want 1 (clamped)", got)
	}
	// Interpolation inside a bucket: p25 is halfway through the first.
	if got := Quantile(0.25, buckets); math.Abs(got-0.05) > 1e-9 {
		t.Errorf("p25 = %v, want 0.05", got)
	}
	if got := Quantile(0.5, nil); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

// TestDefaultBucketsResolveWarmLatencies: a warm load (~90 µs) and a
// slow one (~300 µs) must land in different default buckets, neither of
// them the first, and the scrape-side p50 (what vbsload -scrape reports)
// must sit below the old 500 µs floor instead of interpolating inside it.
func TestDefaultBucketsResolveWarmLatencies(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("vbs_test_op_seconds", "ops", nil, "op")
	h.With("load").Observe(90e-6)
	h.With("load").Observe(300e-6)
	samples, err := Parse(strings.NewReader(r.Render()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bk := Buckets(samples, "vbs_test_op_seconds", map[string]string{"op": "load"})
	if len(bk) != len(DefLatencyBuckets)+1 {
		t.Fatalf("got %d buckets, want %d", len(bk), len(DefLatencyBuckets)+1)
	}
	first := func(n uint64) int {
		for i, b := range bk {
			if b.Count >= n {
				return i
			}
		}
		return -1
	}
	fast, slow := first(1), first(2)
	if fast <= 0 || slow <= fast {
		t.Errorf("90µs landed in bucket %d, 300µs in bucket %d; want distinct, non-first", fast, slow)
	}
	if bk[fast].Upper != 100e-6 || bk[slow].Upper != 500e-6 {
		t.Errorf("bucket bounds %v and %v, want 100µs and 500µs", bk[fast].Upper, bk[slow].Upper)
	}
	if p50 := Quantile(0.5, bk); !(p50 > 50e-6 && p50 < 500e-6) {
		t.Errorf("p50 = %v s, want inside (50µs, 500µs)", p50)
	}
	if top := DefLatencyBuckets[len(DefLatencyBuckets)-1]; top != 10 {
		t.Errorf("top bound = %v s, want 10 (cold decodes)", top)
	}
}
