package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func TestPercentileKnownVector(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins the spread the bench reports to the
// one the benchmark contract computes with Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 7, 3, 19, 5, 11, 2, 17, 13, 23}
	q1, q2, q3 := quartiles(xs)
	if q1 != 4.5 || q2 != 11.5 || q3 != 17.5 {
		t.Errorf("quartiles = %v %v %v, want 4.5 11.5 17.5", q1, q2, q3)
	}
	if got, want := spread(xs), 13/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", unchanged},
		{"slower", steady, []float64{120, 121, 119}, "lower", regressed},
		{"faster", steady, []float64{80, 81, 79}, "lower", improved},
		{"fewer ops", steady, []float64{80, 81, 79}, "higher", regressed},
		{"within bound", steady, []float64{104, 105, 103}, "lower", unchanged},
		{"noisy side", []float64{60, 100, 140}, []float64{95, 100, 105}, "lower", unresolved},
		{"noisy but all better", []float64{60, 100, 140}, []float64{30, 40, 50}, "lower", improved},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, 0.08); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestVariantsAreFreshAndSound(t *testing.T) {
	ts, err := buildTaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.small) != smallCount || len(ts.mid) != len(midDesigns)*len(midClusters) {
		t.Fatalf("task set has %d small and %d mid containers", len(ts.small), len(ts.mid))
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for _, base := range append(append([]*container(nil), ts.small...), ts.mid...) {
		seen[base.digest] = true
		for i := 0; i < 20; i++ {
			v, err := mintVariant(base, rng)
			if err != nil {
				t.Fatal(err)
			}
			if seen[v.digest] {
				t.Fatalf("variant %d of %s repeats a digest", i, base.name)
			}
			seen[v.digest] = true
			if len(v.data) != len(base.data) || v.taskW != base.taskW || v.taskH != base.taskH {
				t.Fatalf("variant of %s changed size", base.name)
			}
			if i == 0 {
				if _, _, err := decodeOntoFabric(v.data); err != nil {
					t.Fatalf("variant of %s does not decode: %v", base.name, err)
				}
			}
		}
	}
}

// streamOf flattens the first rounds of a generator into a string.
func streamOf(t *testing.T, w *workload, ts *taskSet, seed int64, client int) string {
	t.Helper()
	g := newOpGen(w, ts, seed, client)
	var b strings.Builder
	for r := 0; r < 40; r++ {
		ops, err := g.round()
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) != roundOps {
			t.Fatalf("round of %d ops", len(ops))
		}
		for _, o := range ops {
			b.WriteString(opNames[o.kind])
			switch o.kind {
			case opLoad:
				b.WriteString(o.task.digest[:8])
			case opGet:
				b.WriteString(o.digest[:8])
			case opUnload:
				b.WriteByte(byte('a' + o.victim))
			}
			b.WriteByte(' ')
		}
		if g.resident < 0 || g.resident > residentCap {
			t.Fatalf("generator holds %d tasks", g.resident)
		}
	}
	return b.String()
}

func TestOpStreamIsPureFunction(t *testing.T) {
	ts, err := buildTaskSet()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		a := streamOf(t, w, ts, 1, 0)
		if a != streamOf(t, w, ts, 1, 0) {
			t.Errorf("%s: same (workload, seed, client) gave two streams", w.name)
		}
		if a == streamOf(t, w, ts, 1, 1) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.name)
		}
		if a == streamOf(t, w, ts, 2, 0) {
			t.Errorf("%s: seeds 1 and 2 share a stream", w.name)
		}
	}
	// The two cluster workloads send the very same ops.
	hop, _ := workloadByName("cluster_hop")
	batch, _ := workloadByName("cluster_batch")
	if streamOf(t, hop, ts, 1, 0) != streamOf(t, batch, ts, 1, 0) {
		t.Error("cluster_hop and cluster_batch differ in more than batching")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeRunEmitsTheDeclaredMetrics runs all four workloads, both
// passes, on a short window and holds the output against
// BENCHMARK.json: every declared workload and metric exists under a
// well-formed name with the declared unit, nothing undeclared is
// emitted, nothing fails; and a result compared with itself is
// unchanged throughout.
func TestSmokeRunEmitsTheDeclaredMetrics(t *testing.T) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the bench %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	for i := range workloads {
		w := workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := execute(context.Background(), options{
				workloads: []workload{w},
				seed:      1,
				window:    smokeWindow,
				trace:     -1,
				runs:      1,
				outDir:    out,
				setups:    1,
			}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
			}
			var file resultFile
			if err := readJSON(filepath.Join(out, "result.json"), &file); err != nil {
				t.Fatal(err)
			}
			if len(file.Runs) != 2 {
				t.Fatalf("%d runs recorded, want 2", len(file.Runs))
			}
			for _, r := range file.Runs {
				if r.Failed != 0 || r.FailRatio != 0 || r.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d failed: %v", r.Traced, r.Failed, r.Attempted, r.Errors)
				}
				declared := spec.EndToEnd
				if r.Traced {
					declared = spec.PerLayer
				}
				for _, m := range declared {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s is declared and not emitted", r.Traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s: value %v", m.Name, got.Value)
					case !r.Traced && got.Value <= 0:
						t.Errorf("%s: end-to-end value %v must be positive", m.Name, got.Value)
					}
				}
				if len(r.Metrics) != len(declared) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", r.Traced, len(r.Metrics), len(declared))
				}
				if r.Traced && (r.Budget == nil || math.Abs(r.Budget.ClosurePct) > 25) {
					t.Errorf("traced budget does not close: %+v", r.Budget)
				}
			}

			stdout.Reset()
			path := filepath.Join(out, "result.json")
			if code := compareFiles(specPath, path, path, &stdout, &stderr); code != 0 {
				t.Errorf("-compare of a result with itself: exit %d\n%s", code, stdout.String())
			}
			rows := 0
			for _, line := range strings.Split(stdout.String(), "\n") {
				if strings.HasPrefix(line, w.name) {
					rows++
					if !strings.Contains(line, unchanged) {
						t.Errorf("self-compare row is not unchanged: %s", line)
					}
				}
			}
			if rows != len(spec.EndToEnd)+1 {
				t.Errorf("self-compare printed %d rows, want %d", rows, len(spec.EndToEnd)+1)
			}
		})
	}
}
