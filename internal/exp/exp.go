// Package exp is the experiment harness: it reruns the paper's
// evaluation (Section IV) end to end — synthetic MCNC twins through
// placement, routing, raw bitstream generation, VBS encoding at every
// cluster size, and the LZSS baseline — and renders the rows and
// series of Table II, Figure 4 and Figure 5, plus the decode-cost and
// ablation studies.
package exp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mcnc"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/timing"
)

// Config selects what to run and at what effort.
type Config struct {
	// K is the LUT size (default 6, the paper's architecture).
	K int
	// NormW is the normalized channel width for the compression
	// studies (default 20, Section IV).
	NormW int
	// Scale divides benchmark sizes for quick runs (1 = full Table II
	// sizes; 4 reduces LB counts 16x). Default 4.
	Scale int
	// Clusters lists the cluster sizes for Figure 5 (default 1..6).
	Clusters []int
	// Benchmarks filters by name (default: all 20).
	Benchmarks []string
	// MeasureMCW runs the minimum-channel-width binary search
	// (Table II); otherwise MCW is reported as unmeasured.
	MeasureMCW bool
	// Ablations re-encodes with encoder features disabled.
	Ablations bool
	// PlaceInner is the annealer effort (default 1; VPR uses 10).
	PlaceInner float64
	// Seed offsets the per-benchmark generation seed (default 0).
	Seed int64
	// Progress receives log lines when non-nil.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 6
	}
	if c.NormW == 0 {
		c.NormW = 20
	}
	if c.Scale == 0 {
		c.Scale = 4
	}
	if len(c.Clusters) == 0 {
		c.Clusters = []int{1, 2, 3, 4, 5, 6}
	}
	if c.PlaceInner == 0 {
		c.PlaceInner = 1
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// VBSResult is one (benchmark, cluster size) measurement.
type VBSResult struct {
	Cluster    int
	SizeBits   int
	Ratio      float64 // VBS bits / raw bits
	Stats      core.EncodeStats
	EncodeTime time.Duration
	DecodeTime time.Duration
}

// AblationResult compares encoder variants on one benchmark.
type AblationResult struct {
	Variant  string
	SizeBits int
	Ratio    float64
	Raws     int
	Err      string
}

// BenchResult is everything measured for one benchmark.
type BenchResult struct {
	Profile     mcnc.Profile
	LBs         int
	Nets        int
	GridSide    int
	MCWMeasured int // 0 when not measured
	RouteIters  int
	// CritPath is the unit-delay critical path of the routed design.
	CritPath  int
	RawBits   int
	LZSSBits  int // LZSS-compressed raw container size in bits
	VBS       []VBSResult
	Ablations []AblationResult
}

// Results holds a full harness run.
type Results struct {
	Cfg        Config
	Benchmarks []BenchResult
}

// Run executes the configured experiments.
func Run(cfg Config) (*Results, error) {
	cfg = cfg.withDefaults()
	out := &Results{Cfg: cfg}
	profiles := mcnc.Profiles
	if len(cfg.Benchmarks) > 0 {
		profiles = nil
		for _, name := range cfg.Benchmarks {
			p, err := mcnc.ByName(name)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	}
	for _, prof := range profiles {
		br, err := runBenchmark(cfg, prof)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", prof.Name, err)
		}
		out.Benchmarks = append(out.Benchmarks, *br)
	}
	return out, nil
}

func runBenchmark(cfg Config, prof mcnc.Profile) (*BenchResult, error) {
	scaled := prof.Scale(cfg.Scale)
	gp := scaled.GenParams(cfg.K)
	gp.Seed += cfg.Seed
	d, err := gen.Generate(gp)
	if err != nil {
		return nil, err
	}
	cfg.logf("%-12s generating: %d LBs, grid %d", prof.Name, d.NumLogicBlocks(), scaled.Size)

	start := time.Now()
	pl, err := place.Place(d, scaled.Grid(), place.Options{
		Seed: gp.Seed, InnerNum: cfg.PlaceInner,
	})
	if err != nil {
		return nil, err
	}
	cfg.logf("%-12s placed in %v (cost %.0f)", prof.Name, time.Since(start).Round(time.Millisecond), place.Cost(d, pl))

	br := &BenchResult{
		Profile:  prof,
		LBs:      d.NumLogicBlocks(),
		Nets:     len(d.Nets),
		GridSide: scaled.Size,
	}

	if cfg.MeasureMCW {
		start = time.Now()
		mcw, _, err := route.FindMCW(d, pl, cfg.K, route.Options{})
		if err != nil {
			return nil, fmt.Errorf("MCW search: %w", err)
		}
		br.MCWMeasured = mcw
		cfg.logf("%-12s MCW %d in %v (paper: %d)", prof.Name, mcw, time.Since(start).Round(time.Millisecond), prof.MCW)
	}

	// Normalized-width routing for the compression studies.
	start = time.Now()
	gr, err := rrg.Build(arch.Params{W: cfg.NormW, K: cfg.K}, pl.Grid)
	if err != nil {
		return nil, err
	}
	res, err := route.Route(d, pl, gr, route.Options{})
	if err != nil {
		return nil, fmt.Errorf("route at W=%d: %w", cfg.NormW, err)
	}
	cfg.logf("%-12s routed W=%d in %v (%d iters)", prof.Name, cfg.NormW, time.Since(start).Round(time.Millisecond), res.Iterations)
	br.RouteIters = res.Iterations
	if ta, err := timing.Analyze(d, res, timing.Delays{}); err == nil {
		br.CritPath = ta.CriticalPath
	}

	// Raw baseline and LZSS reference.
	raw, err := bitstream.Generate(d, pl, res)
	if err != nil {
		return nil, err
	}
	br.RawBits = raw.SizeBits()
	br.LZSSBits = 8 * len(compress.CompressLZSS(raw.Encode()))

	for _, c := range cfg.Clusters {
		start = time.Now()
		v, stats, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: c})
		if err != nil {
			return nil, fmt.Errorf("encode c=%d: %w", c, err)
		}
		encodeTime := time.Since(start)
		start = time.Now()
		if _, err := v.Decode(1); err != nil {
			return nil, fmt.Errorf("decode c=%d: %w", c, err)
		}
		decodeTime := time.Since(start)
		br.VBS = append(br.VBS, VBSResult{
			Cluster:    c,
			SizeBits:   v.Size(),
			Ratio:      v.CompressionRatio(),
			Stats:      *stats,
			EncodeTime: encodeTime,
			DecodeTime: decodeTime,
		})
		cfg.logf("%-12s c=%d: %s (%.1f%% of raw; fallbacks %d = route %d + dead %d + conflict %d + count %d)",
			prof.Name, c, report.Bits(v.Size()), 100*v.CompressionRatio(), stats.RawRegions,
			stats.RouteFallbacks, stats.DeadEdgeFallbacks, stats.ConflictFallbacks, stats.CountFallbacks)
	}

	if cfg.Ablations {
		br.Ablations = runAblations(d, pl, res)
	}
	return br, nil
}

func runAblations(d *netlist.Design, pl *place.Placement, res *route.Result) []AblationResult {
	variants := []struct {
		name string
		opt  core.EncodeOptions
	}{
		{"default", core.EncodeOptions{Cluster: 1}},
		{"no-reorder", core.EncodeOptions{Cluster: 1, DisableReorder: true}},
		{"no-skip", core.EncodeOptions{Cluster: 1, KeepEmptyRegions: true}},
		{"no-fallback", core.EncodeOptions{Cluster: 1, DisableFallback: true}},
		{"c2-no-reorder", core.EncodeOptions{Cluster: 2, DisableReorder: true}},
		{"c2-default", core.EncodeOptions{Cluster: 2}},
	}
	var out []AblationResult
	for _, va := range variants {
		v, stats, err := core.Encode(d, pl, res, va.opt)
		if err != nil {
			out = append(out, AblationResult{Variant: va.name, Err: err.Error()})
			continue
		}
		out = append(out, AblationResult{
			Variant:  va.name,
			SizeBits: v.Size(),
			Ratio:    v.CompressionRatio(),
			Raws:     stats.RawRegions,
		})
	}
	return out
}

// Table2 renders the benchmark set table (paper Table II) with the
// measured minimum channel widths alongside the published ones.
func (r *Results) Table2() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Table II: benchmark set (scale 1/%d)", r.Cfg.Scale),
		Headers: []string{"Name", "Size", "MCW(paper)", "MCW(ours)", "LBs(paper)", "LBs(ours)", "Nets", "CritPath"},
	}
	for _, b := range r.Benchmarks {
		mcw := "-"
		if b.MCWMeasured > 0 {
			mcw = fmt.Sprintf("%d", b.MCWMeasured)
		}
		t.AddRow(b.Profile.Name, b.GridSide, b.Profile.MCW, mcw, b.Profile.LBs, b.LBs, b.Nets, b.CritPath)
	}
	return t
}

// Fig4 renders the raw-vs-VBS size comparison (paper Figure 4) at the
// finest cluster size, with the LZSS baseline as an extra column.
func (r *Results) Fig4() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 4: raw BS vs VBS size, W=%d, cluster=1", r.Cfg.NormW),
		Headers: []string{"Name", "BS(bits)", "VBS(bits)", "VBS/BS", "LZSS/BS", "RawFallbacks"},
	}
	var sumRatio float64
	n := 0
	for _, b := range r.Benchmarks {
		v := b.vbsAt(1)
		if v == nil {
			continue
		}
		t.AddRow(b.Profile.Name, b.RawBits, v.SizeBits,
			report.Percent(v.Ratio),
			report.Percent(float64(b.LZSSBits)/float64(b.RawBits)),
			v.Stats.RawRegions)
		sumRatio += v.Ratio
		n++
	}
	if n > 0 {
		t.AddRow("AVERAGE", "", "", report.Percent(sumRatio/float64(n)), "", "")
	}
	return t
}

// Fig5 renders the cluster-size study (paper Figure 5): geometric mean
// VBS size with min/max across benchmarks, and the average
// compression ratio, per cluster size.
func (r *Results) Fig5() *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 5: effect of macro cluster size, W=%d", r.Cfg.NormW),
		Headers: []string{"Cluster", "GeomeanVBS(bits)", "MinVBS", "MaxVBS", "AvgRatio", "AvgDecode"},
	}
	for _, c := range r.Cfg.Clusters {
		var logSum float64
		var minV, maxV int
		var sumRatio float64
		var sumDecode time.Duration
		n := 0
		for _, b := range r.Benchmarks {
			v := b.vbsAt(c)
			if v == nil {
				continue
			}
			logSum += math.Log(float64(v.SizeBits))
			if n == 0 || v.SizeBits < minV {
				minV = v.SizeBits
			}
			if v.SizeBits > maxV {
				maxV = v.SizeBits
			}
			sumRatio += v.Ratio
			sumDecode += v.DecodeTime
			n++
		}
		if n == 0 {
			continue
		}
		t.AddRow(c,
			int(math.Exp(logSum/float64(n))),
			minV, maxV,
			report.Percent(sumRatio/float64(n)),
			(sumDecode / time.Duration(n)).Round(time.Microsecond).String())
	}
	return t
}

// DecodeTable renders per-benchmark decode cost against cluster size
// (the "increased computing needs at runtime" of Section IV-B).
func (r *Results) DecodeTable() *report.Table {
	t := &report.Table{
		Title:   "Decode cost vs cluster size",
		Headers: append([]string{"Name"}, clusterHeaders(r.Cfg.Clusters)...),
	}
	for _, b := range r.Benchmarks {
		row := []interface{}{b.Profile.Name}
		for _, c := range r.Cfg.Clusters {
			v := b.vbsAt(c)
			if v == nil {
				row = append(row, "-")
			} else {
				row = append(row, v.DecodeTime.Round(time.Microsecond).String())
			}
		}
		t.AddRow(row...)
	}
	return t
}

// FallbackTable reports the feedback loop's behaviour per benchmark
// and cluster: raw fallback counts out of used regions.
func (r *Results) FallbackTable() *report.Table {
	t := &report.Table{
		Title:   "Feedback loop: raw fallbacks / used regions",
		Headers: append([]string{"Name"}, clusterHeaders(r.Cfg.Clusters)...),
	}
	for _, b := range r.Benchmarks {
		row := []interface{}{b.Profile.Name}
		for _, c := range r.Cfg.Clusters {
			v := b.vbsAt(c)
			if v == nil {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%d/%d", v.Stats.RawRegions, v.Stats.UsedRegions))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// AblationTable renders the encoder-variant study.
func (r *Results) AblationTable() *report.Table {
	t := &report.Table{
		Title:   "Ablations: encoder variants (cluster 1 unless noted)",
		Headers: []string{"Name", "Variant", "VBS(bits)", "Ratio", "RawFallbacks", "Error"},
	}
	for _, b := range r.Benchmarks {
		for _, a := range b.Ablations {
			if a.Err != "" {
				t.AddRow(b.Profile.Name, a.Variant, "-", "-", "-", truncate(a.Err, 48))
				continue
			}
			t.AddRow(b.Profile.Name, a.Variant, a.SizeBits, report.Percent(a.Ratio), a.Raws, "")
		}
	}
	return t
}

func (b *BenchResult) vbsAt(cluster int) *VBSResult {
	for i := range b.VBS {
		if b.VBS[i].Cluster == cluster {
			return &b.VBS[i]
		}
	}
	return nil
}

func clusterHeaders(cs []int) []string {
	out := make([]string, len(cs))
	sorted := append([]int(nil), cs...)
	sort.Ints(sorted)
	for i, c := range sorted {
		out[i] = fmt.Sprintf("c=%d", c)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
