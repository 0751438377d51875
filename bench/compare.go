package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the bench reads: the
// declaration the numbers are judged by. It is read only to compare.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload x metric row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges one metric: a and b are its values over the
// repeated runs of the old and the new side. The medians decide; a
// side whose own runs spread wider than the bound cannot decide
// anything, unless every new run beats every old one.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := (medB - medA) / medA
	sign := 1.0
	if better == "higher" {
		worse, sign = -worse, -1
	}
	noise := max(spread(a), spread(b))
	if noise > bound {
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					return unresolved, worse
				}
			}
		}
		return improved, worse
	}
	switch {
	case worse > bound:
		return regressed, worse
	case -worse > noise:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints one row per workload x end-to-end metric for
// two result files and returns 1 if any row regressed.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b resultFile
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	pa, pb := a.Provenance, b.Provenance
	if pa.HostCPUs != pb.HostCPUs || pa.Clients != pb.Clients || pa.WindowS != pb.WindowS {
		fmt.Fprintf(stdout, "WARNING: the two results were not taken alike: %d vs %d CPUs, %d vs %d clients, %gs vs %gs windows\n",
			pa.HostCPUs, pb.HostCPUs, pa.Clients, pb.Clients, pa.WindowS, pb.WindowS)
	}
	ga, gb := groupRuns(a.Runs), groupRuns(b.Runs)
	fmt.Fprintf(stdout, "%-14s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	bad := false
	for _, w := range spec.Workloads {
		va, vb := ga[w.Name], gb[w.Name]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				fmt.Fprintf(stdout, "%-14s %-16s missing on one side\n", w.Name, m.Name)
				bad = true
				continue
			}
			v, worse := verdict(va[m.Name], vb[m.Name], m.Better, m.Bound)
			fmt.Fprintf(stdout, "%-14s %-16s %12.4f %12.4f %+8.2f%% %6.1f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, median(va[m.Name]), median(vb[m.Name]), 100*worse, 100*m.Bound, v, len(va[m.Name]), len(vb[m.Name]))
			bad = bad || v == regressed
		}
		// Any increase in failures is a regression: there is no
		// bound on wrong answers.
		fa, fb := failRatio(a.Runs, w.Name), failRatio(b.Runs, w.Name)
		v := unchanged
		if fb > fa {
			v, bad = regressed, true
		}
		fmt.Fprintf(stdout, "%-14s %-16s %12.6f %12.6f %26s\n", w.Name, "fail_ratio", fa, fb, v)
	}
	if bad {
		return 1
	}
	return 0
}

// failRatio is the worst fail ratio over a workload's untraced runs.
func failRatio(runs []*runResult, workload string) float64 {
	worst := 0.0
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			worst = max(worst, r.FailRatio)
		}
	}
	return worst
}
