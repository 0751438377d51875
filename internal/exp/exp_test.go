package exp

import (
	"strings"
	"testing"

	"repro/internal/report"
)

// smallRun executes the harness on two small benchmarks at heavy
// downscale, exercising the full pipeline.
func smallRun(t *testing.T, mcw, ablations bool) *Results {
	t.Helper()
	r, err := Run(Config{
		Scale:      6,
		Clusters:   []int{1, 2, 3},
		Benchmarks: []string{"ex5p", "alu4"},
		MeasureMCW: mcw,
		Ablations:  ablations,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunPipeline(t *testing.T) {
	r := smallRun(t, true, true)
	if len(r.Benchmarks) != 2 {
		t.Fatalf("%d benchmarks", len(r.Benchmarks))
	}
	for _, b := range r.Benchmarks {
		if b.RawBits <= 0 || b.LZSSBits <= 0 {
			t.Errorf("%s: sizes not measured", b.Profile.Name)
		}
		if b.MCWMeasured < 2 || b.MCWMeasured > 30 {
			t.Errorf("%s: MCW %d implausible", b.Profile.Name, b.MCWMeasured)
		}
		if len(b.VBS) != 3 {
			t.Fatalf("%s: %d cluster results", b.Profile.Name, len(b.VBS))
		}
		for _, v := range b.VBS {
			if v.SizeBits <= 0 || v.Ratio <= 0 || v.Ratio >= 1 {
				t.Errorf("%s c=%d: size %d ratio %.3f", b.Profile.Name, v.Cluster, v.SizeBits, v.Ratio)
			}
			if v.DecodeTime <= 0 || v.EncodeTime <= 0 {
				t.Errorf("%s c=%d: times not measured", b.Profile.Name, v.Cluster)
			}
		}
		if len(b.Ablations) == 0 {
			t.Errorf("%s: no ablations", b.Profile.Name)
		}
	}
}

func TestTablesRender(t *testing.T) {
	r := smallRun(t, true, true)
	var sb strings.Builder
	for _, tbl := range []*report.Table{r.Table2(), r.Fig4(), r.Fig5(), r.DecodeTable(), r.FallbackTable(), r.AblationTable()} {
		tbl.Render(&sb)
	}
	out := sb.String()
	for _, want := range []string{
		"Table II", "Figure 4", "Figure 5", "Decode cost",
		"Feedback loop", "Ablations",
		"ex5p", "alu4", "AVERAGE", "no-reorder",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run(Config{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFig5GeomeanWithinMinMax(t *testing.T) {
	r := smallRun(t, false, false)
	for _, c := range r.Cfg.Clusters {
		var minV, maxV int
		n := 0
		for _, b := range r.Benchmarks {
			v := b.vbsAt(c)
			if v == nil {
				continue
			}
			if n == 0 || v.SizeBits < minV {
				minV = v.SizeBits
			}
			if v.SizeBits > maxV {
				maxV = v.SizeBits
			}
			n++
		}
		if n == 0 {
			t.Fatalf("cluster %d has no data", c)
		}
		if minV > maxV {
			t.Errorf("cluster %d: min %d > max %d", c, minV, maxV)
		}
	}
}

func TestVbsAtMissing(t *testing.T) {
	b := BenchResult{}
	if b.vbsAt(1) != nil {
		t.Error("missing cluster should be nil")
	}
}
