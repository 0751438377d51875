// Command bench is the repository's benchmark: one command that builds
// the task set, boots the system under test in-process on loopback
// listeners, drives four workloads through the HTTP/JSON wire API,
// checks every output, and reports the end-to-end metrics (tracing
// off) and the per-layer metrics (a separate traced pass). It is a
// dev-only package: nothing here is linked into a daemon. See
// README.md in this directory for what each number means.
//
//	go run ./bench -seed 1                    # every workload, both passes
//	go run ./bench -runs 3                    # three sets, medians and quartiles
//	go run ./bench -workload single_cold -trace 0 -seconds 15
//	go run ./bench -compare old.json new.json # verdict per workload x metric
//
// With one workload and one pass selected, the last line of standard
// output is the machine-readable result
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// provenance records where and how a result was taken, so numbers
// from different machine classes are never compared by accident.
type provenance struct {
	Seed       int64   `json:"seed"`
	HostCPUs   int     `json:"host_cpus"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Runs       int     `json:"runs"`
	Taken      string  `json:"taken"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

// specFile is the benchmark declaration at the repository root; it
// holds the bounds -compare applies.
const specFile = "BENCHMARK.json"

// maxClients caps the closed-loop callers; fewer on a smaller host,
// so the load generator never outnumbers the cores it shares with the
// system under test.
const maxClients = 4

// options is a parsed command line.
type options struct {
	workloads []workload
	seed      int64
	warmup    time.Duration
	window    time.Duration
	// trace selects the passes: 0 end-to-end only, 1 traced only,
	// anything else both.
	trace  int
	runs   int
	outDir string
	// setups is how often an untraced run repeats its set-up.
	setups int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Int64("seed", 1, "drives variant bits and op order; base designs are fixed")
		seconds = fs.Float64("seconds", 15, "measured window per run, in seconds")
		warmup  = fs.Float64("warmup", 3, "discarded warm-up before each untraced window, in seconds")
		trace   = fs.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		runs    = fs.Int("runs", 1, "repeat the selected set this many times and report medians and quartiles")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for result.json, trace files and temporary data")
		compare = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on any regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(specFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *warmup < 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	o := options{
		workloads: workloads,
		seed:      *seed,
		warmup:    time.Duration(*warmup * float64(time.Second)),
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *trace,
		runs:      *runs,
		outDir:    *outDir,
		setups:    setupRepeats,
	}
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		o.workloads = []workload{*w}
	}
	// Daemon chatter (stream connects, job lines) is not a result.
	log.SetOutput(io.Discard)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return execute(ctx, o, stdout, stderr)
}

// execute runs the selected workloads and passes, prints each run,
// writes result.json and returns the exit code.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) int {
	clients := min(runtime.NumCPU(), maxClients)
	file := resultFile{Provenance: provenance{
		Seed:       o.seed,
		HostCPUs:   runtime.NumCPU(),
		Clients:    clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		WarmupS:    o.warmup.Seconds(),
		WindowS:    o.window.Seconds(),
		Runs:       o.runs,
		Taken:      time.Now().UTC().Format(time.RFC3339),
	}}
	failed := false
	for rep := 0; rep < o.runs; rep++ {
		for _, traced := range []bool{false, true} {
			if (o.trace == 0 && traced) || (o.trace == 1 && !traced) {
				continue
			}
			for i := range o.workloads {
				cfg := &runConfig{
					w:       &o.workloads[i],
					seed:    o.seed,
					warmup:  o.warmup,
					window:  o.window,
					clients: clients,
					traced:  traced,
					setups:  o.setups,
					outDir:  o.outDir,
				}
				if traced {
					// The traced pass attributes time; it has no tail
					// percentile to steady and one caller to warm.
					cfg.clients, cfg.setups = 1, 1
				}
				res, err := runOne(ctx, cfg)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.w.name, err)
					return 1
				}
				printRun(stdout, res)
				failed = failed || res.Failed > 0
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if o.runs > 1 {
		printSummary(stdout, file.Runs)
	}
	// Fleets and probes remove their own data dirs; what is left of
	// the scratch root is an empty directory.
	_ = os.Remove((&runConfig{outDir: o.outDir}).tmpRoot())
	if err := writeJSON(filepath.Join(o.outDir, "result.json"), &file, true); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(file.Runs) == 1 {
		r := file.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		fmt.Fprintln(stderr, "bench: output checks failed")
		return 1
	}
	return 0
}

// setupRepeats is how often an untraced run repeats its set-up:
// setup_s is the median, which one slow disk sync cannot move.
const setupRepeats = 3

// commit names the source the numbers were taken at; a checkout that
// is not a git repository reports "unknown". Git is told not to look
// for a repository above the working directory: the bench reads
// nothing outside its checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeJSON stores v at path; indent trades size for legibility.
func writeJSON(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if indent {
		data, err = json.MarshalIndent(v, "", " ")
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRun prints every metric of one run by name, with its unit and
// the sample count behind it.
func printRun(w io.Writer, r *runResult) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, %d client(s), seed %d): %d attempted, %d failed\n",
		r.Workload, pass, r.Clients, r.Seed, r.Attempted, r.Failed)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-14s %-26s %14.4f %-7s", r.Workload, name, m.Value, m.Unit)
		if n := r.Samples[name]; n > 0 {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
	if r.Budget != nil {
		r.Budget.print(w, r.Workload)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-14s FAILED %s\n", r.Workload, e)
	}
}

// printSummary folds repeated runs into median and quartiles per
// workload x metric.
func printSummary(w io.Writer, runs []*runResult) {
	fmt.Fprintf(w, "== summary over repeated runs: median [q1, q3] spread\n")
	groups := groupRuns(runs)
	for _, key := range sortedKeys(groups) {
		g := groups[key]
		for _, name := range sortedKeys(g) {
			q1, q2, q3 := quartiles(g[name])
			fmt.Fprintf(w, "%-22s %-26s %14.4f [%.4f, %.4f] %.2f%% n=%d\n",
				key, name, q2, q1, q3, 100*spread(g[name]), len(g[name]))
		}
	}
}

// groupRuns collects metric values across runs, keyed by workload
// (with a "/traced" suffix for the per-layer pass) then metric name.
func groupRuns(runs []*runResult) map[string]map[string][]float64 {
	groups := map[string]map[string][]float64{}
	for _, r := range runs {
		key := r.Workload
		if r.Traced {
			key += "/traced"
		}
		if groups[key] == nil {
			groups[key] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			groups[key][name] = append(groups[key][name], m.Value)
		}
	}
	return groups
}
