package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed interval of the traced pass. Spans of one
// operation share Op; Parent is the ID of the span that caused this
// one (0 for a root). Times are nanoseconds since the trace began.
// The name is an index into the tracer's table, which keeps the span
// slice free of pointers: the collector never scans it, however long
// the window.
type span struct {
	ID, Parent, Op int
	Name           int
	Start, End     int64
}

// tracer keeps spans in memory until the run ends. One goroutine
// records into it: the traced pass is single-client by design.
type tracer struct {
	epoch time.Time
	spans []span
	names []string
	index map[string]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), index: map[string]int{}} }

func (t *tracer) begin(parent, op int, name string) int {
	n, ok := t.index[name]
	if !ok {
		n = len(t.names)
		t.names = append(t.names, name)
		t.index[name] = n
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: n,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// timed records fn as one child span and returns its duration.
func (t *tracer) timed(parent, op int, name string, fn func()) time.Duration {
	id := t.begin(parent, op, name)
	fn()
	return t.end(id)
}

// durations returns every span of one name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	n, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == n {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// nameTotals is one row of a trace file's by-name summary.
type nameTotals struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	// SelfNS is the time spent in spans of this name and not in their
	// children: a span's duration minus the part of it its child
	// spans cover. Children of one parent never overlap here (one
	// goroutine records them in sequence), so the covered part is the
	// sum of the children.
	SelfNS int64 `json:"self_ns"`
}

func (t *tracer) totals() map[string]*nameTotals {
	covered := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		s := &t.spans[i]
		covered[s.Parent] += s.End - s.Start
	}
	out := map[string]*nameTotals{}
	for i := range t.spans {
		s := &t.spans[i]
		nt := out[t.names[s.Name]]
		if nt == nil {
			nt = &nameTotals{}
			out[t.names[s.Name]] = nt
		}
		nt.Count++
		nt.TotalNS += s.End - s.Start
		nt.SelfNS += s.End - s.Start - covered[s.ID]
	}
	return out
}

// maxSpansWritten bounds a trace file. Every span counts in the
// by-name summary; the file lists the first spans of the window — a
// few thousand whole operations — and every span of the probe phase.
const maxSpansWritten = 20000

// spanJSON is a span as the trace file spells it.
type spanJSON struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write stores the trace. probeFrom is the index of the first span
// of the probe phase.
func (t *tracer) write(path, workload string, seed int64, probeFrom int) error {
	head := min(probeFrom, maxSpansWritten)
	// Cut the window's part at an operation boundary.
	for head > 0 && head < probeFrom && t.spans[head].Parent != 0 {
		head--
	}
	var spans []spanJSON
	for _, part := range [][]span{t.spans[:head], t.spans[probeFrom:]} {
		for _, s := range part {
			spans = append(spans, spanJSON{s.ID, s.Parent, s.Op, t.names[s.Name], s.Start, s.End})
		}
	}
	return writeJSON(path, struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Recorded int                    `json:"spans_recorded"`
		ByName   map[string]*nameTotals `json:"by_name"`
		Spans    []spanJSON             `json:"spans"`
	}{workload, seed, len(t.spans), t.totals(), spans}, false)
}

// budget is the latency budget of the workload's loads: what the
// client saw (e2e.http), the node-side stages replayed through each
// layer's public function, and the residual nobody can attribute yet
// (net/http, the gateway hop, locks, metrics observes, scheduling).
type budget struct {
	// Of is what one sample is: a load, or on the batched workload a
	// whole batch with the loads in it.
	Of      string `json:"of"`
	Samples int    `json:"samples"`
	// E2EUS, StageSumUS and ResidualUS are medians over the loads of
	// the window; ClosurePct is how far stage sum plus residual is
	// from the end-to-end median — medians do not add, so it is not
	// zero by construction.
	E2EUS      float64 `json:"e2e_http_us"`
	StageSumUS float64 `json:"stage_sum_us"`
	ResidualUS float64 `json:"residual_us"`
	ClosurePct float64 `json:"closure_pct"`
	// DecodeSharePct is the share of all end-to-end load time spent
	// in the decode.* stages.
	DecodeSharePct float64 `json:"decode_share_pct"`
	// Stages is the median of each stage over the loads that ran it,
	// with how many did.
	Stages map[string]stageStat `json:"stages"`
}

type stageStat struct {
	MedianUS float64 `json:"median_us"`
	Count    int     `json:"count"`
}

func (b *budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%-14s budget over %d %s samples: e2e.http %.1f us = stages %.1f us + residual %.1f us (closure %.1f%%), decode share %.1f%%\n",
		workload, b.Samples, b.Of, b.E2EUS, b.StageSumUS, b.ResidualUS, b.ClosurePct, b.DecodeSharePct)
	for _, name := range sortedKeys(b.Stages) {
		fmt.Fprintf(w, "%-14s   stage %-22s %10.1f us  n=%d\n", workload, name, b.Stages[name].MedianUS, b.Stages[name].Count)
	}
}

// loadTrace is what the traced loop keeps per load for the budget.
type loadTrace struct {
	e2e, stages, decode time.Duration
}

func newBudget(tr *tracer, of string, loads []loadTrace) *budget {
	b := &budget{Of: of, Samples: len(loads), Stages: map[string]stageStat{}}
	var e2e, sum, resid []float64
	var totalE2E, totalDecode time.Duration
	for _, l := range loads {
		e2e = append(e2e, us(l.e2e))
		sum = append(sum, us(l.stages))
		resid = append(resid, us(l.e2e-l.stages))
		totalE2E += l.e2e
		totalDecode += l.decode
	}
	b.E2EUS, b.StageSumUS, b.ResidualUS = median(e2e), median(sum), median(resid)
	if b.E2EUS > 0 {
		b.ClosurePct = 100 * (b.StageSumUS + b.ResidualUS - b.E2EUS) / b.E2EUS
	}
	if totalE2E > 0 {
		b.DecodeSharePct = 100 * float64(totalDecode) / float64(totalE2E)
	}
	for _, name := range loadStages {
		if d := tr.durations(name); len(d) > 0 {
			b.Stages[name] = stageStat{MedianUS: median(d), Count: len(d)}
		}
	}
	return b
}

// maxReference bounds the untraced single-client window that opens
// the traced pass: it warms the fleet and yields the rate
// trace.overhead_pct is measured against.
const maxReference = 2 * time.Second

// runTraced is the per-layer pass: one client, tracing on. It first
// runs a short untraced window as the reference rate, then the window
// with every operation wrapped in spans and replayed through a shadow
// of the node, then the fixed probe phase; counts come from scraping
// every daemon's /metrics around the window.
func runTraced(ctx context.Context, cfg *runConfig, p *prepared, res *runResult) error {
	c := p.clients[0]
	sh, err := newShadow(cfg)
	if err != nil {
		return err
	}
	defer sh.close()

	// Reference: the same single client, tracing off. It then lets go
	// of everything it holds, so the node and the shadow start the
	// traced window from the same state: warm bases stored and
	// decoded, no task placed.
	c.epoch = time.Now()
	if err := c.drive(ctx, c.epoch.Add(min(cfg.window/2, maxReference))); err != nil {
		return err
	}
	refOps := 0
	for k := range c.lat {
		refOps += len(c.lat[k])
	}
	refRate := float64(refOps) / time.Since(c.epoch).Seconds()
	c.drain(ctx)
	c.gen.forget()
	if !cfg.w.mid {
		if err := sh.preload(p.ts.small); err != nil {
			return err
		}
	}

	before, err := scrapeFleet(ctx, p.fleet.daemons())
	if err != nil {
		return err
	}
	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)

	tr := newTracer()
	sh.tr = tr
	begin := time.Now()
	stop := begin.Add(cfg.window)
	ops, rounds := 0, 0
	for time.Now().Before(stop) {
		if err := ctx.Err(); err != nil {
			return err
		}
		round, err := c.gen.round()
		if err != nil {
			return err
		}
		if cfg.w.batched {
			c.tracedBatch(ctx, sh, rounds, round)
		} else {
			c.tracedRound(ctx, sh, ops, round)
		}
		ops += len(round)
		rounds++
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&memAfter)
	after, err := scrapeFleet(ctx, p.fleet.daemons())
	if err != nil {
		return err
	}
	if len(sh.loads) == 0 {
		return fmt.Errorf("traced window of %s recorded no load", cfg.w.name)
	}

	// The budget is cut before the probes add their spans: it is made
	// of what the workload's own loads ran.
	of := "load"
	if cfg.w.batched {
		of = "batch"
	}
	res.Budget = newBudget(tr, of, sh.loads)

	probeFrom := len(tr.spans)
	pr, err := runProbes(ctx, cfg, p.ts, tr)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}

	layerMetrics(res, tr, pr, p.ts)
	countMetrics(res, before, after, ops)
	res.set("process.alloc_kb_per_op", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/1024/float64(ops), "KB", ops)
	res.set("process.heap_peak_mb", float64(memAfter.HeapSys)/(1<<20), "MB", 0)
	res.set("process.gc_pause_ms", float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6, "ms", int(memAfter.NumGC-memBefore.NumGC))
	res.set("trace.overhead_pct", 100*(1-float64(ops)/elapsed.Seconds()/refRate), "%", ops)

	res.set("server.residual_us", res.Budget.ResidualUS, "us", res.Budget.Samples)

	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json"), cfg.w.name, cfg.seed, probeFrom)
}

// tracedRound runs one round request by request: per op a root span,
// the real round trip as its e2e.http child, and the replay's stage
// spans as siblings.
func (c *client) tracedRound(ctx context.Context, sh *shadow, firstOp int, ops []op) {
	ids := make([]int64, len(ops))
	for i, o := range ops {
		opID := firstOp + i
		root := sh.tr.begin(0, opID, "op")
		rt := sh.tr.begin(root, opID, "e2e.http")
		var err error
		switch o.kind {
		case opLoad:
			ids[i] = noTask
			var id int64
			if id, _, err = c.load(ctx, o.task); err == nil {
				ids[i] = id
			}
			e2e := sh.tr.end(rt)
			if err == nil {
				err = sh.load(root, opID, o.task, id, e2e)
			}
		case opGet:
			_, err = c.get(ctx, o.digest)
			sh.tr.end(rt)
			if err == nil {
				err = sh.get(root, opID, o.digest)
			}
		case opUnload:
			id := c.resident[o.victim]
			_, err = c.unload(ctx, id)
			sh.tr.end(rt)
			if err == nil {
				err = sh.unload(root, opID, id)
			}
		}
		sh.tr.end(root)
		c.check(err)
	}
	c.settle(ops, ids)
}

// tracedBatch runs one round as a batch: the root span is the batch,
// e2e.http its round trip, and the replay walks the batch's ops in
// order after pricing the frame codec on the batch body.
func (c *client) tracedBatch(ctx context.Context, sh *shadow, batchID int, ops []op) {
	victims := make([]int64, len(ops))
	for i, o := range ops {
		if o.kind == opUnload {
			victims[i] = c.resident[o.victim]
		}
	}
	body, err := c.batchBody(ops)
	if err != nil {
		c.check(err)
		return
	}
	root := sh.tr.begin(0, batchID, "op")
	rt := sh.tr.begin(root, batchID, "e2e.http")
	failedBefore := c.failed
	loaded := c.runBatch(ctx, ops)
	e2e := sh.tr.end(rt)
	if c.failed == failedBefore {
		c.check(sh.batch(root, batchID, body, ops, victims, loaded, e2e))
	}
	sh.tr.end(root)
}
