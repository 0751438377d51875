package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is everything one (workload, pass) run needs.
type runConfig struct {
	w       *workload
	seed    int64
	warmup  time.Duration
	window  time.Duration
	clients int
	traced  bool
	// setups is how often set-up is repeated; setup_s is the median.
	setups int
	outDir string
}

// tmpRoot is where fleets, shadow and probes keep their data dirs.
func (cfg *runConfig) tmpRoot() string { return filepath.Join(cfg.outDir, "tmp") }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports; result.json holds a list of
// them, and the contract's last stdout line is cut from one.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Clients   int               `json:"clients"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of measurements behind each timing.
	Samples map[string]int `json:"samples"`
	// LateVariants counts fresh containers minted inside the window
	// because the pool sized in set-up ran dry.
	LateVariants int      `json:"late_variants"`
	Errors       []string `json:"errors,omitempty"`
	// Budget is the traced pass's per-load latency budget.
	Budget *budget `json:"budget,omitempty"`
}

func (r *runResult) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.Samples[name] = samples
	}
}

// sample is one timed operation, in nanoseconds since the run epoch.
type sample struct{ start, end int64 }

// maxErrors bounds the error messages a run keeps.
const maxErrors = 8

// tally counts a client's checks; every operation and every output
// check adds one attempt, every miss one failure.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < maxErrors {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// client is one closed-loop caller: it sends its next request only
// when the previous reply has been read and checked.
type client struct {
	w        *workload
	gen      *opGen
	wire     *wire
	epoch    time.Time
	resident []int64
	lat      [nOpKinds][]sample
	rounds   []sample
	loaded   []*container // fresh containers the fleet acknowledged
	tally
}

func (c *client) since() int64 { return int64(time.Since(c.epoch)) }

// load sends one container and checks the reply against what was
// sent: the digest must be the SHA-256 of the bytes, the task size
// the container's.
func (c *client) load(ctx context.Context, task *container) (int64, sample, error) {
	s := sample{start: c.since()}
	out, err := c.wire.load(ctx, task.body)
	s.end = c.since()
	if err != nil {
		return 0, s, err
	}
	var rep loadReply
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, s, fmt.Errorf("load reply: %w", err)
	}
	return rep.ID, s, checkLoadReply(&rep, task)
}

func checkLoadReply(rep *loadReply, task *container) error {
	if rep.Digest != task.digest {
		return fmt.Errorf("load of %s: reply digest %s, sent %s", task.name, rep.Digest, task.digest)
	}
	if rep.TaskW != task.taskW || rep.TaskH != task.taskH {
		return fmt.Errorf("load of %s: reply task %dx%d, sent %dx%d", task.name, rep.TaskW, rep.TaskH, task.taskW, task.taskH)
	}
	return nil
}

func checkBlob(data []byte, digest string) error {
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != digest {
		return fmt.Errorf("get %s: body hashes to %s", digest, got)
	}
	return nil
}

func (c *client) get(ctx context.Context, digest string) (sample, error) {
	s := sample{start: c.since()}
	out, err := c.wire.get(ctx, digest)
	s.end = c.since()
	if err != nil {
		return s, err
	}
	return s, checkBlob(out, digest)
}

func (c *client) unload(ctx context.Context, id int64) (sample, error) {
	s := sample{start: c.since()}
	err := c.wire.unload(ctx, id)
	s.end = c.since()
	return s, err
}

// noTask marks the resident slot of a load that failed, so the
// positions the generator hands out keep meaning the same tasks;
// unloaded marks a slot settle is about to drop.
const (
	noTask   = -1
	unloaded = -2
)

// settle applies a finished round to the resident list: victims
// leave, then the round's loads join in op order — the same order the
// generator counts in.
func (c *client) settle(ops []op, ids []int64) {
	for _, o := range ops {
		if o.kind == opUnload {
			c.resident[o.victim] = unloaded
		}
	}
	kept := c.resident[:0]
	for _, id := range c.resident {
		if id != unloaded {
			kept = append(kept, id)
		}
	}
	c.resident = kept
	for i, o := range ops {
		if o.kind == opLoad {
			c.resident = append(c.resident, ids[i])
			if o.task.fresh && ids[i] != noTask {
				c.loaded = append(c.loaded, o.task)
			}
		}
	}
}

// runRound executes one drawn round request by request.
func (c *client) runRound(ctx context.Context, ops []op) {
	ids := make([]int64, len(ops))
	begin := c.since()
	for i, o := range ops {
		var (
			s   sample
			err error
		)
		switch o.kind {
		case opLoad:
			ids[i] = noTask
			var id int64
			if id, s, err = c.load(ctx, o.task); err == nil {
				ids[i] = id
			}
		case opGet:
			s, err = c.get(ctx, o.digest)
		case opUnload:
			if id := c.resident[o.victim]; id != noTask {
				s, err = c.unload(ctx, id)
			} else {
				err = fmt.Errorf("unload: the load of this task failed")
			}
		}
		if c.check(err) {
			c.lat[o.kind] = append(c.lat[o.kind], s)
		}
	}
	c.settle(ops, ids)
	c.rounds = append(c.rounds, sample{begin, c.since()})
}

// batchBody encodes a round as one POST /tasks:batch body.
func (c *client) batchBody(ops []op) ([]byte, error) {
	req := batchRequest{Ops: make([]batchOp, len(ops))}
	for i, o := range ops {
		switch o.kind {
		case opLoad:
			req.Ops[i] = batchOp{Op: "load", VBS: o.task.b64()}
		case opGet:
			req.Ops[i] = batchOp{Op: "get", Digest: o.digest}
		case opUnload:
			req.Ops[i] = batchOp{Op: "unload", ID: c.resident[o.victim]}
		}
	}
	return json.Marshal(req)
}

// runBatch executes one drawn round as a single batch request. Every
// op of the batch observes the batch's round trip as its latency. It
// returns the task id each load was given, by op position.
func (c *client) runBatch(ctx context.Context, ops []op) []int64 {
	ids := make([]int64, len(ops))
	for i := range ids {
		ids[i] = noTask
	}
	body, err := c.batchBody(ops)
	if err != nil {
		c.check(err)
		return ids
	}
	s := sample{start: c.since()}
	out, err := c.wire.batch(ctx, body)
	s.end = c.since()
	var rep batchReply
	if err == nil {
		if err = json.Unmarshal(out, &rep); err == nil && len(rep.Results) != len(ops) {
			err = fmt.Errorf("batch of %d ops: %d results", len(ops), len(rep.Results))
		}
	}
	if err != nil {
		// The whole round trip failed: every op in it did.
		for range ops {
			c.check(fmt.Errorf("batch: %w", err))
		}
		c.settle(ops, ids)
		return ids
	}
	for i, o := range ops {
		res := &rep.Results[i]
		var err error
		switch o.kind {
		case opLoad:
			switch {
			case res.Status != http.StatusCreated || res.Load == nil:
				err = fmt.Errorf("batch load of %s: status %d: %s", o.task.name, res.Status, res.Error)
			default:
				if err = checkLoadReply(res.Load, o.task); err == nil {
					ids[i] = res.Load.ID
				}
			}
		case opGet:
			if res.Status != http.StatusOK {
				err = fmt.Errorf("batch get %s: status %d: %s", o.digest, res.Status, res.Error)
			} else if data, derr := base64.StdEncoding.DecodeString(res.VBS); derr != nil {
				err = fmt.Errorf("batch get %s: %w", o.digest, derr)
			} else {
				err = checkBlob(data, o.digest)
			}
		case opUnload:
			if res.Status != http.StatusNoContent {
				err = fmt.Errorf("batch unload: status %d: %s", res.Status, res.Error)
			}
		}
		if c.check(err) {
			c.lat[o.kind] = append(c.lat[o.kind], s)
		}
	}
	c.settle(ops, ids)
	c.rounds = append(c.rounds, s)
	return ids
}

// drive runs the closed loop until stop. Rounds are never cut short
// (the generator's bookkeeping assumes whole rounds); what overruns
// the window is left out when the samples are folded.
func (c *client) drive(ctx context.Context, stop time.Time) error {
	for time.Now().Before(stop) {
		if err := ctx.Err(); err != nil {
			return err
		}
		ops, err := c.gen.round()
		if err != nil {
			return err
		}
		if c.w.batched {
			c.runBatch(ctx, ops)
		} else {
			c.runRound(ctx, ops)
		}
	}
	return nil
}

// drain unloads whatever the client still holds.
func (c *client) drain(ctx context.Context) {
	for _, id := range c.resident {
		if id == noTask {
			continue
		}
		_, err := c.unload(ctx, id)
		c.check(err)
	}
	c.resident = nil
}

// prepared is the outcome of one set-up: inputs built, fleet booted
// and preloaded, clients connected.
type prepared struct {
	ts      *taskSet
	fleet   *fleet
	clients []*client
}

func (p *prepared) close() {
	for _, c := range p.clients {
		c.wire.close()
	}
	if p.fleet != nil {
		p.fleet.close()
	}
}

// setUp does everything that precedes the timed window: build and
// verify the task set, mint each client's variant pool, boot this
// workload's fleet and preload it. Its wall time is setup_s.
func setUp(ctx context.Context, cfg *runConfig) (p *prepared, err error) {
	p = &prepared{}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.ts, err = buildTaskSet(); err != nil {
		return nil, err
	}
	horizon := (cfg.warmup + cfg.window).Seconds()
	if p.fleet, err = bootFleet(ctx, cfg.w.clustered, cfg.tmpRoot()); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.clients; i++ {
		c := &client{
			w:    cfg.w,
			gen:  newOpGen(cfg.w, p.ts, cfg.seed, i),
			wire: newWire(p.fleet.url),
		}
		if err := c.gen.pool.fill(int(cfg.w.freshPerSec * horizon)); err != nil {
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	if !cfg.w.mid {
		// Warm bases are loaded and unloaded once, so that in the
		// window they dedupe in the store and hit the decoded cache.
		c := p.clients[0]
		for _, task := range p.ts.small {
			id, _, err := c.load(ctx, task)
			if err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			if _, err := c.unload(ctx, id); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
	}
	return p, nil
}

// finalChecks asserts, after the clients drained, that the fleet is
// empty — no task listed, no fabric macro in use — and, on a
// clustered fleet, that up to 100 sampled fresh blobs come back
// byte-identical through the gateway.
func finalChecks(ctx context.Context, cfg *runConfig, p *prepared, t *tally) {
	w := p.clients[0].wire
	var tasks []json.RawMessage
	err := w.getJSON(ctx, "/tasks", &tasks)
	if err == nil && len(tasks) != 0 {
		err = fmt.Errorf("after drain: %d task(s) still listed", len(tasks))
	}
	t.check(err)
	var fabs []fabricInfo
	err = w.getJSON(ctx, "/fabrics", &fabs)
	if err == nil && len(fabs) != nodeFabrics*len(p.fleet.nodes) {
		err = fmt.Errorf("after drain: %d fabric(s) listed, want %d", len(fabs), nodeFabrics*len(p.fleet.nodes))
	}
	for i, f := range fabs {
		if err == nil && f.FreeMacros != f.TotalMacros {
			err = fmt.Errorf("after drain: fabric %d has %d of %d macros in use", i, f.TotalMacros-f.FreeMacros, f.TotalMacros)
		}
	}
	t.check(err)
	if !cfg.w.clustered {
		return
	}
	var fresh []*container
	for _, c := range p.clients {
		fresh = append(fresh, c.loaded...)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	if len(fresh) > 100 {
		fresh = fresh[:100]
	}
	for _, task := range fresh {
		out, err := w.get(ctx, task.digest)
		if err == nil && !bytes.Equal(out, task.data) {
			err = fmt.Errorf("fresh blob %s came back altered", task.digest)
		}
		t.check(err)
	}
}

// runOne performs one (workload, pass) run end to end.
func runOne(parent context.Context, cfg *runConfig) (*runResult, error) {
	// The hard deadline: a run that takes three times its nominal
	// window fails instead of hanging.
	ctx, cancel := context.WithTimeout(parent, 3*(cfg.warmup+cfg.window)+30*time.Second)
	defer cancel()

	res := &runResult{
		Workload: cfg.w.name,
		Traced:   cfg.traced,
		Seed:     cfg.seed,
		Clients:  cfg.clients,
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
	}

	var p *prepared
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if p != nil {
			p.close()
		}
		begin := time.Now()
		var err error
		if p, err = setUp(ctx, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(begin).Seconds())
	}
	defer p.close()

	var total tally
	var err error
	if cfg.traced {
		err = runTraced(ctx, cfg, p, res)
	} else {
		err = runUntraced(ctx, cfg, p, res)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range p.clients {
		c.drain(ctx)
	}
	finalChecks(ctx, cfg, p, &total)
	for _, c := range p.clients {
		total.attempted += c.attempted
		total.failed += c.failed
		for _, e := range c.errs {
			if len(total.errs) < maxErrors {
				total.errs = append(total.errs, e)
			}
		}
		res.LateVariants += c.gen.pool.late
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: hard deadline: %w", cfg.w.name, err)
	}
	res.Attempted, res.Failed, res.Errors = total.attempted, total.failed, total.errs
	res.FailRatio = float64(total.failed) / float64(total.attempted)
	if !cfg.traced {
		res.set("setup_s", median(setupS), "s", len(setupS))
		res.set("compress_ratio", compressRatio(cfg.w.bases(p.ts)), "ratio", 0)
	}
	return res, nil
}

// runUntraced is the end-to-end pass: all clients in closed loop for
// warm-up plus window, tracing off.
func runUntraced(ctx context.Context, cfg *runConfig, p *prepared, res *runResult) error {
	// Start the window from a collected heap so set-up garbage does
	// not land a collection in the first seconds of some runs only.
	runtime.GC()
	epoch := time.Now()
	warmEnd := epoch.Add(cfg.warmup)
	stop := warmEnd.Add(cfg.window)
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for i, c := range p.clients {
		c.epoch = epoch
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.drive(ctx, stop)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return endToEnd(res, p.clients, int64(cfg.warmup), int64(cfg.warmup+cfg.window))
}

// endToEnd folds the clients' samples that lie wholly inside the
// measured window [from, to) into the end-to-end metrics.
//
// The tail percentile differs by family on purpose. A few ops in a
// thousand stall for a scheduler tick (~4 ms on the reference box), so
// latencies are a mixture of two populations, and a percentile that
// sits on the boundary between them swings with the stall rate from
// run to run. For single ops the boundary is near p99; for a round of
// 16 it is near p90 to p95. Ops therefore report p95 (below it) and
// rounds p99 (above it); measured over ten seeds per workload these
// spread 1 to 8 %, where per-op p99 spread up to 21 %.
func endToEnd(res *runResult, clients []*client, from, to int64) error {
	inWindow := func(ss []sample) []float64 {
		var out []float64
		for _, s := range ss {
			if s.start >= from && s.end <= to {
				out = append(out, float64(s.end-s.start)/1e6)
			}
		}
		return out
	}
	ops := 0
	for k := opKind(0); k < nOpKinds; k++ {
		var all []float64
		for _, c := range clients {
			all = append(all, inWindow(c.lat[k])...)
		}
		if len(all) == 0 {
			return fmt.Errorf("no successful %s inside the measured window", opNames[k])
		}
		ops += len(all)
		sort.Float64s(all)
		res.set(opNames[k]+"_p50_ms", sortedPercentile(all, 0.50), "ms", len(all))
		res.set(opNames[k]+"_p95_ms", sortedPercentile(all, 0.95), "ms", len(all))
	}
	var rounds []float64
	for _, c := range clients {
		rounds = append(rounds, inWindow(c.rounds)...)
	}
	if len(rounds) == 0 {
		return fmt.Errorf("no whole round inside the measured window")
	}
	sort.Float64s(rounds)
	res.set("batch_p50_ms", sortedPercentile(rounds, 0.50), "ms", len(rounds))
	res.set("batch_p99_ms", sortedPercentile(rounds, 0.99), "ms", len(rounds))
	res.set("ops_per_s", float64(ops)/(float64(to-from)/1e9), "ops/s", ops)
	return nil
}
