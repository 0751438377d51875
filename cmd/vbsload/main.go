// Command vbsload drives load at a vbsd daemon or vbsgw gateway
// (both speak the same API) and reports serve-path throughput and
// latency percentiles. It is the traffic source of the smoke and
// chaos scripts and an ad-hoc probe of a running fleet; the repo's
// committed performance numbers come from `go run ./bench` (the
// workloads declared in BENCHMARK.json), not from vbsload.
//
//	vbsload -url http://localhost:8930 -workers 8 -ops 500 -mix 20:60:20
//	vbsload -url http://localhost:8931 -duration 10s -json > report.json
//
// The op mix is load:get:unload percentages. Before the run, vbsload
// asks GET /fabrics for the target's channel width and LUT size and
// compiles -tasks distinct small designs to matching VBS containers,
// so the measured loads pay the real store/decode/place path. A get
// fetches a previously loaded blob; an unload removes a previously
// loaded task; both degrade to a load while nothing is loaded yet.
// Remaining tasks are unloaded at the end unless -cleanup=false.
//
// With -batch N, workers compose N ops from the mix into one
// POST /tasks:batch round trip instead of N separate requests; the
// report gains a `batch` block with per-batch round-trip percentiles
// (per-op latencies are then the amortized batch cost). Capacity
// rejections (409 from a full fabric pool) are reported as rejects,
// separate from errors, and do not count against -max-error-rate.
//
// With -scrape, vbsload snapshots the target's GET /metrics before
// and after the run and folds the *server-side* latency percentiles
// of the window (p50/p90/p99 per op, estimated from the histogram
// bucket deltas) into the report — client-observed and server-
// observed latency side by side from one tool.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// opKind indexes the per-op scoreboards.
type opKind int

const (
	opLoad opKind = iota
	opGet
	opUnload
	nOps
)

var opNames = [nOps]string{"load", "get", "unload"}

// opStats is one op type's summary. Errors are transport failures and
// 5xx replies; capacity rejections (409) count separately as rejects —
// a full fabric refusing a load is the service working, not failing.
type opStats struct {
	Count   int     `json:"count"`
	Errors  int     `json:"errors"`
	Rejects int     `json:"rejects,omitempty"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// batchStats summarizes the batched round trips of a -batch run:
// counts and percentiles are per *batch call*, not per op.
type batchStats struct {
	Size   int     `json:"size"`
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// serverOpStats is one op's server-side latency summary, estimated
// from the /metrics histogram bucket deltas of the run window.
type serverOpStats struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// summary is the -json document.
type summary struct {
	URL        string             `json:"url"`
	Workers    int                `json:"workers"`
	Mix        string             `json:"mix"`
	Tasks      int                `json:"distinct_tasks"`
	WallS      float64            `json:"wall_s"`
	Ops        int                `json:"ops"`
	Errors     int                `json:"errors"`
	Rejects    int                `json:"rejects,omitempty"`
	ReqPerSec  float64            `json:"req_per_sec"`
	PerOp      map[string]opStats `json:"per_op"`
	Batch      *batchStats        `json:"batch,omitempty"`
	LastErrors map[string]string  `json:"last_errors,omitempty"`
	// ScrapeURL / ServerSide are filled by -scrape: the target's own
	// op-latency histograms diffed across the run.
	ScrapeURL  string                   `json:"scrape_url,omitempty"`
	ServerSide map[string]serverOpStats `json:"server_side,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vbsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "http://localhost:8931", "vbsd or vbsgw base URL")
		workers  = fs.Int("workers", 8, "concurrent workers")
		ops      = fs.Int("ops", 0, "total operation count (0 = run for -duration)")
		duration = fs.Duration("duration", 10*time.Second, "run length when -ops is 0")
		mix      = fs.String("mix", "20:60:20", "load:get:unload percentages")
		tasks    = fs.Int("tasks", 8, "distinct task containers to generate")
		seed     = fs.Int64("seed", 1, "generation and mix seed")
		jsonOut  = fs.Bool("json", false, "emit a JSON summary on stdout")
		cleanup  = fs.Bool("cleanup", true, "unload remaining tasks at the end")
		batch    = fs.Int("batch", 1, "ops per POST /tasks:batch round trip (1 = unbatched endpoints)")
		maxErr   = fs.Float64("max-error-rate", 1.0, "fail (exit 1) when errors/ops exceeds this fraction (409 capacity rejections are not errors)")
		scrape   = fs.String("scrape", "", "scrape this base URL's /metrics before and after the run and report server-side percentile deltas (usually the -url target)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintf(stderr, "vbsload: %v\n", err)
		return 2
	}
	if *workers < 1 || *tasks < 1 || (*ops == 0 && *duration <= 0) {
		fmt.Fprintln(stderr, "vbsload: need -workers >= 1, -tasks >= 1 and a positive -ops or -duration")
		return 2
	}
	if *batch < 1 {
		fmt.Fprintln(stderr, "vbsload: -batch must be >= 1")
		return 2
	}

	ctx := context.Background()
	cl := server.NewClient(*url, nil)
	fabrics, err := cl.Fabrics(ctx)
	if err != nil || len(fabrics) == 0 {
		fmt.Fprintf(stderr, "vbsload: cannot read %s/fabrics: %v\n", *url, err)
		return 1
	}
	w, k := fabrics[0].W, fabrics[0].K

	fmt.Fprintf(stderr, "vbsload: generating %d task(s) for W=%d K=%d fabrics\n", *tasks, w, k)
	containers := make([][]byte, *tasks)
	for i := range containers {
		if containers[i], err = loadgen.GenTask(*seed+int64(i), w, k); err != nil {
			fmt.Fprintf(stderr, "vbsload: task generation: %v\n", err)
			return 1
		}
	}

	var before []metrics.Sample
	if *scrape != "" {
		if before, err = server.NewClient(*scrape, nil).Metrics(ctx); err != nil {
			fmt.Fprintf(stderr, "vbsload: cannot scrape %s/metrics: %v\n", *scrape, err)
			return 1
		}
	}

	bench := newBench(cl, containers, weights, *seed)
	bench.batch = *batch
	wall := bench.run(ctx, *workers, *ops, *duration)

	var after []metrics.Sample
	if *scrape != "" {
		// Scrape before the cleanup drain so the window covers exactly
		// the measured ops.
		if after, err = server.NewClient(*scrape, nil).Metrics(ctx); err != nil {
			fmt.Fprintf(stderr, "vbsload: cannot scrape %s/metrics: %v\n", *scrape, err)
			return 1
		}
	}
	if *cleanup {
		bench.drain(ctx)
	}

	s := bench.summarize(*url, *workers, *mix, wall)
	if *scrape != "" {
		s.ScrapeURL = *scrape
		s.ServerSide = scrapeDeltas(before, after)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintf(stderr, "vbsload: %v\n", err)
			return 1
		}
	} else {
		printSummary(stdout, s)
	}
	if s.Ops == 0 {
		fmt.Fprintln(stderr, "vbsload: no operation completed")
		return 1
	}
	// The default 1.0 budget never trips (a rate cannot exceed 1), so
	// existing invocations keep exiting 0 no matter what; chaos and
	// smoke scripts pass a real budget to make failures fail.
	if rate := float64(s.Errors) / float64(s.Ops); rate > *maxErr {
		fmt.Fprintf(stderr, "vbsload: error rate %.3f (%d/%d) exceeds -max-error-rate %.3f\n",
			rate, s.Errors, s.Ops, *maxErr)
		return 1
	}
	return 0
}

// scrapeDeltas diffs two /metrics snapshots and summarizes the
// server-side latency distribution of every *_op_duration_seconds
// histogram series that saw observations inside the window (vbsd
// exports vbs_server_op_duration_seconds, vbsgw
// vbs_gateway_op_duration_seconds — both match).
func scrapeDeltas(before, after []metrics.Sample) map[string]serverOpStats {
	out := map[string]serverOpStats{}
	seen := map[string]bool{}
	for _, smp := range after {
		name, isBucket := strings.CutSuffix(smp.Name, "_bucket")
		if !isBucket || !strings.HasSuffix(name, "_op_duration_seconds") {
			continue
		}
		op := smp.Label("op")
		if op == "" || seen[op] {
			continue
		}
		seen[op] = true
		labels := map[string]string{"op": op}
		delta := metrics.Buckets(after, name, labels)
		// A series born mid-run is absent from the before snapshot; its
		// delta is then the after snapshot itself.
		if bb := metrics.Buckets(before, name, labels); len(bb) > 0 {
			delta = metrics.SubtractBuckets(bb, delta)
		}
		if len(delta) == 0 || delta[len(delta)-1].Count == 0 {
			continue
		}
		out[op] = serverOpStats{
			Count: int(delta[len(delta)-1].Count),
			P50MS: metrics.Quantile(0.50, delta) * 1000,
			P90MS: metrics.Quantile(0.90, delta) * 1000,
			P99MS: metrics.Quantile(0.99, delta) * 1000,
		}
	}
	return out
}

// parseMix reads "load:get:unload" percentages.
func parseMix(s string) ([nOps]int, error) {
	var out [nOps]int
	parts := strings.Split(s, ":")
	if len(parts) != int(nOps) {
		return out, fmt.Errorf("bad -mix %q: want load:get:unload", s)
	}
	total := 0
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", &out[i]); err != nil || out[i] < 0 {
			return out, fmt.Errorf("bad -mix %q", s)
		}
		total += out[i]
	}
	if total == 0 {
		return out, fmt.Errorf("bad -mix %q: all zero", s)
	}
	return out, nil
}

// bench is the shared run state.
type bench struct {
	cl         *server.Client
	containers [][]byte
	weights    [nOps]int
	wsum       int
	seed       int64

	batch int // ops per batched round trip (1 = unbatched)

	mu        sync.Mutex
	loaded    []int64  // task ids available for unload
	digests   []string // digests available for get
	lastErr   [nOps]string
	lats      [nOps][]float64 // milliseconds
	errs      [nOps]int
	rejects   [nOps]int
	batchLats []float64 // per-batch round-trip milliseconds
	batchErrs int
}

// classify buckets an op outcome (b.mu held): a 409 is the fabric
// pool rejecting for capacity — a reject, not an error, so
// -max-error-rate gates on actual breakage (transport failures and
// 5xx). The committed serve baseline's "load errors" were all such
// 409s.
func (b *bench) classify(op opKind, err error) {
	if err == nil {
		return
	}
	if server.StatusCode(err) == http.StatusConflict {
		b.rejects[op]++
		return
	}
	b.errs[op]++
	b.lastErr[op] = err.Error()
}

func newBench(cl *server.Client, containers [][]byte, weights [nOps]int, seed int64) *bench {
	b := &bench{cl: cl, containers: containers, weights: weights, seed: seed}
	for _, w := range weights {
		b.wsum += w
	}
	return b
}

// pick draws an op kind from the mix, degrading get/unload to load
// while their prerequisites don't exist yet.
func (b *bench) pick(rng *rand.Rand) opKind {
	n := rng.Intn(b.wsum)
	var op opKind
	for i := opLoad; i < nOps; i++ {
		if n < b.weights[i] {
			op = i
			break
		}
		n -= b.weights[i]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if op == opGet && len(b.digests) == 0 {
		return opLoad
	}
	if op == opUnload && len(b.loaded) == 0 {
		return opLoad
	}
	return op
}

func (b *bench) record(op opKind, start time.Time, err error) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lats[op] = append(b.lats[op], ms)
	b.classify(op, err)
}

func (b *bench) doOne(ctx context.Context, rng *rand.Rand) {
	switch op := b.pick(rng); op {
	case opLoad:
		data := b.containers[rng.Intn(len(b.containers))]
		start := time.Now()
		res, err := b.cl.Load(ctx, data, server.LoadRequest{})
		b.record(op, start, err)
		if err == nil {
			b.mu.Lock()
			b.loaded = append(b.loaded, res.ID)
			b.digests = appendUnique(b.digests, res.Digest)
			b.mu.Unlock()
		}
	case opGet:
		b.mu.Lock()
		d := b.digests[rng.Intn(len(b.digests))]
		b.mu.Unlock()
		start := time.Now()
		_, err := b.cl.GetVBS(ctx, d)
		b.record(op, start, err)
	case opUnload:
		b.mu.Lock()
		if len(b.loaded) == 0 {
			b.mu.Unlock()
			return
		}
		i := rng.Intn(len(b.loaded))
		id := b.loaded[i]
		b.loaded[i] = b.loaded[len(b.loaded)-1]
		b.loaded = b.loaded[:len(b.loaded)-1]
		b.mu.Unlock()
		start := time.Now()
		err := b.cl.Unload(ctx, id)
		b.record(op, start, err)
	}
}

// doBatch composes n ops from the mix into one POST /tasks:batch
// round trip. The batch latency is recorded once in the batch
// scoreboard and amortized (batch wall / n) into the per-op series so
// the per-op percentiles reflect effective per-op cost.
func (b *bench) doBatch(ctx context.Context, rng *rand.Rand, n int) {
	kinds := make([]opKind, 0, n)
	ops := make([]server.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		switch op := b.pick(rng); op {
		case opLoad:
			kinds = append(kinds, opLoad)
			ops = append(ops, server.BatchLoadOp(b.containers[rng.Intn(len(b.containers))]))
		case opGet:
			b.mu.Lock()
			d := b.digests[rng.Intn(len(b.digests))]
			b.mu.Unlock()
			kinds = append(kinds, opGet)
			ops = append(ops, server.BatchOp{Op: "get", Digest: d})
		case opUnload:
			b.mu.Lock()
			if len(b.loaded) == 0 {
				b.mu.Unlock()
				kinds = append(kinds, opLoad)
				ops = append(ops, server.BatchLoadOp(b.containers[rng.Intn(len(b.containers))]))
				continue
			}
			j := rng.Intn(len(b.loaded))
			id := b.loaded[j]
			b.loaded[j] = b.loaded[len(b.loaded)-1]
			b.loaded = b.loaded[:len(b.loaded)-1]
			b.mu.Unlock()
			kinds = append(kinds, opUnload)
			ops = append(ops, server.BatchOp{Op: "unload", ID: id})
		}
	}

	start := time.Now()
	resp, err := b.cl.Batch(ctx, server.BatchRequest{Ops: ops})
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	perOp := ms / float64(len(ops))

	b.mu.Lock()
	defer b.mu.Unlock()
	b.batchLats = append(b.batchLats, ms)
	if err != nil || len(resp.Results) != len(ops) {
		if err == nil {
			err = fmt.Errorf("short batch reply: %d results for %d ops", len(resp.Results), len(ops))
		}
		b.batchErrs++
		for _, k := range kinds {
			b.lats[k] = append(b.lats[k], perOp)
			b.classify(k, err)
		}
		return
	}
	for i, r := range resp.Results {
		k := kinds[i]
		b.lats[k] = append(b.lats[k], perOp)
		if r.Status >= 200 && r.Status < 300 {
			if k == opLoad && r.Load != nil {
				b.loaded = append(b.loaded, r.Load.ID)
				b.digests = appendUnique(b.digests, r.Load.Digest)
			}
			continue
		}
		b.classify(k, server.BatchError(r))
	}
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// run fans workers out until the op budget or the clock runs dry and
// returns the wall time.
func (b *bench) run(ctx context.Context, workers, ops int, duration time.Duration) time.Duration {
	var counter atomic.Int64
	deadline := time.Now().Add(duration)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed + int64(i)*7919))
			for {
				n := 1
				if b.batch > 1 {
					n = b.batch
				}
				if ops > 0 {
					// Claim n ops off the shared budget; trim the final
					// batch to what is left.
					claimed := counter.Add(int64(n))
					if over := claimed - int64(ops); over > 0 {
						n -= int(over)
						if n <= 0 {
							return
						}
					}
				} else if time.Now().After(deadline) {
					return
				}
				if b.batch > 1 {
					b.doBatch(ctx, rng, n)
				} else {
					b.doOne(ctx, rng)
				}
			}
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// drain unloads everything the run left behind (not measured).
func (b *bench) drain(ctx context.Context) {
	b.mu.Lock()
	ids := append([]int64(nil), b.loaded...)
	b.loaded = nil
	b.mu.Unlock()
	for _, id := range ids {
		_ = b.cl.Unload(ctx, id)
	}
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func (b *bench) summarize(url string, workers int, mix string, wall time.Duration) summary {
	s := summary{
		URL:     url,
		Workers: workers,
		Mix:     mix,
		Tasks:   len(b.containers),
		WallS:   wall.Seconds(),
		PerOp:   map[string]opStats{},
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for op := opLoad; op < nOps; op++ {
		lat := append([]float64(nil), b.lats[op]...)
		sort.Float64s(lat)
		st := opStats{
			Count:   len(lat),
			Errors:  b.errs[op],
			Rejects: b.rejects[op],
			P50MS:   percentile(lat, 0.50),
			P90MS:   percentile(lat, 0.90),
			P99MS:   percentile(lat, 0.99),
		}
		if len(lat) > 0 {
			st.MaxMS = lat[len(lat)-1]
		}
		s.PerOp[opNames[op]] = st
		s.Ops += st.Count
		s.Errors += st.Errors
		s.Rejects += st.Rejects
		if b.lastErr[op] != "" {
			if s.LastErrors == nil {
				s.LastErrors = map[string]string{}
			}
			s.LastErrors[opNames[op]] = b.lastErr[op]
		}
	}
	if b.batch > 1 {
		lat := append([]float64(nil), b.batchLats...)
		sort.Float64s(lat)
		bs := &batchStats{
			Size:   b.batch,
			Count:  len(lat),
			Errors: b.batchErrs,
			P50MS:  percentile(lat, 0.50),
			P90MS:  percentile(lat, 0.90),
			P99MS:  percentile(lat, 0.99),
		}
		if len(lat) > 0 {
			bs.MaxMS = lat[len(lat)-1]
		}
		s.Batch = bs
	}
	if s.WallS > 0 {
		s.ReqPerSec = float64(s.Ops) / s.WallS
	}
	return s
}

func printSummary(w io.Writer, s summary) {
	fmt.Fprintf(w, "target   : %s (%d workers, mix %s, %d distinct tasks)\n",
		s.URL, s.Workers, s.Mix, s.Tasks)
	fmt.Fprintf(w, "total    : %d ops in %.2fs = %.1f req/s, %d error(s), %d reject(s)\n",
		s.Ops, s.WallS, s.ReqPerSec, s.Errors, s.Rejects)
	for _, name := range opNames {
		st := s.PerOp[name]
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-9s: %6d ops  p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms  (%d err, %d rej)\n",
			name, st.Count, st.P50MS, st.P90MS, st.P99MS, st.MaxMS, st.Errors, st.Rejects)
	}
	if s.Batch != nil {
		fmt.Fprintf(w, "batch(%d) : %6d rtt  p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms  (%d err)\n",
			s.Batch.Size, s.Batch.Count, s.Batch.P50MS, s.Batch.P90MS, s.Batch.P99MS, s.Batch.MaxMS, s.Batch.Errors)
	}
	for name, msg := range s.LastErrors {
		fmt.Fprintf(w, "last %s error: %s\n", name, msg)
	}
	if len(s.ServerSide) > 0 {
		names := make([]string, 0, len(s.ServerSide))
		for name := range s.ServerSide {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "server-side (%s/metrics):\n", s.ScrapeURL)
		for _, name := range names {
			st := s.ServerSide[name]
			fmt.Fprintf(w, "%-9s: %6d ops  p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  (histogram estimate)\n",
				name, st.Count, st.P50MS, st.P90MS, st.P99MS)
		}
	}
}
