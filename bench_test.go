package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, on scaled-down MCNC twins so `go test -bench=.` finishes
// in minutes. Each benchmark reports the experiment's headline number
// as a custom metric (ratio, mcw, ...); cmd/experiments regenerates
// the full tables, including at full Table II sizes with -scale 1.

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bits"
	"repro/internal/bitstream"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
)

// benchScale shrinks benchmarks for the harness (LB counts /36).
const benchScale = 6

// benchState caches one compiled benchmark across benchmark functions.
type benchState struct {
	design *netlist.Design
	pl     *place.Placement
	res    *route.Result // at the normalized W=20
	raw    *bitstream.Raw
}

var (
	benchCache   = map[string]*benchState{}
	benchCacheMu sync.Mutex
)

func compiled(b *testing.B, name string) *benchState {
	b.Helper()
	benchCacheMu.Lock()
	defer benchCacheMu.Unlock()
	if st, ok := benchCache[name]; ok {
		return st
	}
	prof, err := mcnc.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(benchScale)
	d, err := gen.Generate(scaled.GenParams(6))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, scaled.Grid(), place.Options{Seed: 1, InnerNum: 1})
	if err != nil {
		b.Fatal(err)
	}
	gr, err := rrg.Build(arch.Params{W: 20, K: 6}, pl.Grid)
	if err != nil {
		b.Fatal(err)
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := bitstream.Generate(d, pl, res)
	if err != nil {
		b.Fatal(err)
	}
	st := &benchState{design: d, pl: pl, res: res, raw: raw}
	benchCache[name] = st
	return st
}

// BenchmarkEq1 regenerates the worked example of Section II-B: the
// per-macro switch inventory and VBS field widths (E4 in DESIGN.md).
func BenchmarkEq1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := arch.PaperExample()
		if p.NRaw() != 284 || bits.CeilLog2(p.NumIOCodes()) != 5 || p.NRaw()/(2*bits.CeilLog2(p.NumIOCodes())) != 28 {
			b.Fatal("Eq. (1) values drifted")
		}
		p20 := arch.Default()
		if p20.NRaw() != 1004 || bits.CeilLog2(p20.NumIOCodes()) != 7 {
			b.Fatal("normalized architecture drifted")
		}
	}
}

// BenchmarkTable2 regenerates Table II rows: the minimum-channel-width
// search on (scaled) benchmarks. The mcw metric is the measured MCW.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"alu4", "ex5p", "s298"} {
		b.Run(name, func(b *testing.B) {
			st := compiled(b, name)
			var mcw int
			for i := 0; i < b.N; i++ {
				w, _, err := route.FindMCW(st.design, st.pl, 6, route.Options{})
				if err != nil {
					b.Fatal(err)
				}
				mcw = w
			}
			b.ReportMetric(float64(mcw), "mcw")
		})
	}
}

// BenchmarkFig4 regenerates Figure 4 points: VBS encoding at the
// finest grain against the raw bitstream. The ratio metric is
// VBS/raw, the paper's ~0.41 average.
func BenchmarkFig4(b *testing.B) {
	for _, name := range []string{"alu4", "apex4", "des", "tseng"} {
		b.Run(name, func(b *testing.B) {
			st := compiled(b, name)
			var ratio float64
			for i := 0; i < b.N; i++ {
				v, _, err := core.Encode(st.design, st.pl, st.res, core.EncodeOptions{Cluster: 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = v.CompressionRatio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5 points: the cluster-size sweep.
func BenchmarkFig5(b *testing.B) {
	for _, cluster := range []int{1, 2, 3, 4, 6} {
		b.Run(clusterName(cluster), func(b *testing.B) {
			st := compiled(b, "apex4")
			var ratio float64
			for i := 0; i < b.N; i++ {
				v, _, err := core.Encode(st.design, st.pl, st.res, core.EncodeOptions{Cluster: cluster})
				if err != nil {
					b.Fatal(err)
				}
				ratio = v.CompressionRatio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkDecode measures the runtime controller's de-virtualization
// cost per cluster size (Section IV-B's "increased computing needs").
func BenchmarkDecode(b *testing.B) {
	for _, cluster := range []int{1, 2, 4} {
		b.Run(clusterName(cluster), func(b *testing.B) {
			st := compiled(b, "apex4")
			v, _, err := core.Encode(st.design, st.pl, st.res, core.EncodeOptions{Cluster: cluster})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(v.RawSizeBits() / 8)) // configuration produced per decode
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Decode(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelDecode measures the concurrent entry-level decode
// (the controller's fan-out, one pooled router per in-flight region)
// against the same per-cluster-size workload as BenchmarkDecode.
func BenchmarkParallelDecode(b *testing.B) {
	for _, cluster := range []int{1, 2, 4} {
		b.Run(clusterName(cluster), func(b *testing.B) {
			st := compiled(b, "apex4")
			v, _, err := core.Encode(st.design, st.pl, st.res, core.EncodeOptions{Cluster: cluster})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(v.RawSizeBits() / 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Decode(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLZSS regenerates the related-work baseline: LZSS over the
// raw bitstream (refs [1,2] of the paper). The ratio metric compares
// with Fig. 4's VBS ratios.
func BenchmarkLZSS(b *testing.B) {
	st := compiled(b, "apex4")
	data := st.raw.Encode()
	b.SetBytes(int64(len(data)))
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(len(compress.CompressLZSS(data))) / float64(len(data))
	}
	b.ReportMetric(ratio, "ratio")
}

// BenchmarkAblation quantifies the encoder's design choices: the
// connection re-ordering step and empty-region skipping.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		opt  core.EncodeOptions
	}{
		{"default", core.EncodeOptions{Cluster: 2}},
		{"no-reorder", core.EncodeOptions{Cluster: 2, DisableReorder: true}},
		{"no-skip", core.EncodeOptions{Cluster: 2, KeepEmptyRegions: true}},
	}
	for _, va := range variants {
		b.Run(va.name, func(b *testing.B) {
			st := compiled(b, "apex4")
			var ratio float64
			var raws int
			for i := 0; i < b.N; i++ {
				v, stats, err := core.Encode(st.design, st.pl, st.res, va.opt)
				if err != nil {
					b.Fatal(err)
				}
				ratio = v.CompressionRatio()
				raws = stats.RawRegions
			}
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(float64(raws), "fallbacks")
		})
	}
}

// BenchmarkFullFlow measures the complete offline pipeline (place,
// route, encode) on a small task: the cost a user of Flow pays.
func BenchmarkFullFlow(b *testing.B) {
	prof, err := mcnc.ByName("ex5p")
	if err != nil {
		b.Fatal(err)
	}
	scaled := prof.Scale(8)
	d, err := gen.Generate(scaled.GenParams(6))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow := NewFlow()
		flow.W = 12
		flow.PlaceEffort = 1
		flow.Seed = int64(i)
		if _, err := flow.Compile(d); err != nil {
			b.Fatal(err)
		}
	}
}

func clusterName(c int) string {
	return "c=" + strconv.Itoa(c)
}
