package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("vbs_test_total", "a counter", func() float64 { return 5 })
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

// FuzzParseExposition: Parse reads what a remote daemon's /metrics
// serves, so no input may panic it; and whatever a registry renders —
// label values and sample values drawn from the fuzzer — must parse
// back to the same samples.
func FuzzParseExposition(f *testing.F) {
	f.Add([]byte("# HELP x y\n# TYPE x counter\nx 3 1700000000000\n"), "load", 0.25)
	f.Add([]byte(`vbs_bad{le="0.1" 3`), `a"b\c`, 3.0)
	// Invalid UTF-8 next to an escaped quote: escaping once rewrote the
	// stray byte as U+FFFD, so the label no longer round-tripped.
	f.Add([]byte(""), "\xff\"", 1.0)
	f.Add([]byte("vbs_x{a=\"\\n\"} NaN\n"), "line\nbreak", math.Inf(1))
	f.Fuzz(func(t *testing.T, text []byte, label string, v float64) {
		_, _ = Parse(bytes.NewReader(text))

		r := NewRegistry()
		r.CounterFunc("vbs_fuzz_total", "fuzzed counter", func() float64 { return v })
		r.GaugeVec("vbs_fuzz_level", "fuzzed gauge", "name").With(label).Set(v)
		r.HistogramVec("vbs_fuzz_seconds", "fuzzed histogram", []float64{0.1, 1}, "name").With(label).Observe(v)
		samples, err := Parse(strings.NewReader(r.Render()))
		if err != nil {
			t.Fatalf("parse of a rendered registry: %v", err)
		}
		same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
		lbl := map[string]string{"name": label}
		for _, want := range []struct {
			name   string
			labels map[string]string
			v      float64
		}{
			{"vbs_fuzz_total", nil, v},
			{"vbs_fuzz_level", lbl, v},
			{"vbs_fuzz_seconds_count", lbl, 1},
			{"vbs_fuzz_seconds_sum", lbl, v},
		} {
			if got, ok := Find(samples, want.name, want.labels); !ok || !same(got, want.v) {
				t.Errorf("%s%v = %v (found %v), want %v", want.name, want.labels, got, ok, want.v)
			}
		}
		if bk := Buckets(samples, "vbs_fuzz_seconds", lbl); len(bk) != 3 || bk[2].Count != 1 {
			t.Errorf("buckets = %+v, want 3 ending at count 1", bk)
		}
	})
}
