package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/repo"
	"repro/internal/server/store"
	"repro/internal/transport"
)

// The probe phase closes the traced pass. The replay only times the
// layers the workload's own ops reach; the probes call every layer's
// public function a fixed number of times on the workload's inputs,
// on fixtures of their own, so every per-layer metric has samples on
// every workload. Probe spans land in the same trace under a root
// span named "probe"; a per-layer timing is the median over all spans
// of its name, replayed and probed alike.

const (
	// probeIters is the sample count of a cheap probe.
	probeIters = 64
	// probeDecodes is how often each mid base is de-virtualized.
	probeDecodes = 5
	// perSpan is how many calls a nanosecond-scale probe packs into
	// one span, so the clock reads do not drown what they time.
	perSpan = 1000
)

// probeResult carries the figures that are not span medians.
type probeResult struct {
	decodeAllocBytes float64
	decodeAllocs     float64
	workersSpeedup   float64
}

// probe is the recording context of one probe phase.
type probe struct {
	tr   *tracer
	root int
	rng  *rand.Rand
}

func (p *probe) timed(name string, fn func() error) error {
	var err error
	p.tr.timed(p.root, -1, name, func() { err = fn() })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func runProbes(ctx context.Context, cfg *runConfig, ts *taskSet, tr *tracer) (*probeResult, error) {
	p := &probe{tr: tr, root: tr.begin(0, -1, "probe"), rng: rand.New(rand.NewSource(cfg.seed))}
	defer tr.end(p.root)
	tmp, err := tempDir(cfg.tmpRoot(), "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	bases := cfg.w.bases(ts)
	fresh := make([]*container, probeIters)
	for i := range fresh {
		if fresh[i], err = mintVariant(bases[i%len(bases)], p.rng); err != nil {
			return nil, err
		}
	}
	res := &probeResult{}
	steps := []func() error{
		func() error { return p.storeAndCore(fresh) },
		func() error { return p.decode(ts, res) },
		func() error { return p.placement(ts, bases[0]) },
		func() error { return p.repoAndPromote(tmp, fresh) },
		func() error { return p.ringAndMetrics(fresh) },
		func() error { return p.transport(ctx, cfg, ts) },
		func() error { return p.gateway(ctx, cfg, ts, fresh) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// storeAndCore prices the container path of a load — parse, warm,
// serialize, digest, store admission new and repeated, decoded-cache
// lookup — on fresh variants of the workload's bases.
func (p *probe) storeAndCore(fresh []*container) error {
	st := store.NewTiered(storeBytes, nil)
	cache := store.NewCache[*core.VBS](0, func(*core.VBS) int64 { return 1 })
	for _, c := range fresh {
		var v *core.VBS
		var d store.Digest
		steps := []struct {
			name string
			fn   func() error
		}{
			{"core.parse", func() (err error) { v, err = core.Parse(c.data); return }},
			{"core.warm", func() error { return v.Warm() }},
			{"core.encode", func() error { _, err := v.Encode(); return err }},
			{"store.digest", func() error { d = store.DigestOf(c.data); return nil }},
			{"store.put_new", func() error { _, _, err := st.Put(c.data); return err }},
			{"store.put_hit", func() error { _, _, err := st.Put(c.data); return err }},
			{"store.get_data", func() error { _, err := st.GetData(d); return err }},
		}
		for _, s := range steps {
			if err := p.timed(s.name, s.fn); err != nil {
				return err
			}
		}
		cache.Put(d, v)
		if err := p.timed("cache.get", func() error {
			if _, ok := cache.Get(d); !ok {
				return errors.New("cached entry missing")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// decode prices de-virtualization per cluster size on the 18 mid
// bases, its allocations (parse included: about one part in a
// hundred), and what the worker fan-out buys on the c=4 bases — each
// is decoded with all CPUs and, right after, with one worker.
func (p *probe) decode(ts *taskSet, res *probeResult) error {
	var one, all []float64
	var mem0, mem1 runtime.MemStats
	decodes := 0
	runtime.ReadMemStats(&mem0)
	for _, c := range ts.mid {
		v, err := core.Parse(c.data)
		if err != nil {
			return err
		}
		if err := v.Warm(); err != nil {
			return err
		}
		for i := 0; i < probeDecodes; i++ {
			took := p.tr.timed(p.root, -1, fmt.Sprintf("decode.c%d", c.cluster), func() {
				_, err = controller.DecodeVBS(v, 0)
			})
			if err != nil {
				return err
			}
			decodes++
			if c.cluster == 4 {
				all = append(all, us(took))
				begin := time.Now()
				if _, err := controller.DecodeVBS(v, 1); err != nil {
					return err
				}
				one = append(one, us(time.Since(begin)))
			}
		}
	}
	runtime.ReadMemStats(&mem1)
	res.decodeAllocBytes = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(decodes+len(one))
	res.decodeAllocs = float64(mem1.Mallocs-mem0.Mallocs) / float64(decodes+len(one))
	res.workersSpeedup = median(one) / median(all)
	return nil
}

// placement prices the controller on a blank 64x64 fabric — place
// (admission scan, write, verify), the Section V relocation between
// two free slots, unload — and the admission scan at its worst: a
// task that fits no hole of a checkerboard-fragmented fabric, so the
// scan visits every position before it reports no slot.
func (p *probe) placement(ts *taskSet, base *container) error {
	newCtrl := func() (*controller.Controller, error) {
		fab, err := fabric.New(arch.Params{W: archW, K: archK}, arch.Grid{Width: fabricSide, Height: fabricSide})
		if err != nil {
			return nil, err
		}
		return controller.New(fab, 0), nil
	}
	decoded := func(c *container) (*controller.Decoded, error) {
		v, err := core.Parse(c.data)
		if err != nil {
			return nil, err
		}
		return controller.DecodeVBS(v, 0)
	}
	dec, err := decoded(base)
	if err != nil {
		return err
	}
	ctrl, err := newCtrl()
	if err != nil {
		return err
	}
	far := fabricSide - base.taskW
	for i := 0; i < probeIters; i++ {
		var t *controller.Task
		if err := p.timed("controller.place", func() (err error) {
			t, err = ctrl.LoadDecodedPolicy(dec, nil)
			return err
		}); err != nil {
			return err
		}
		if err := p.timed("controller.relocate", func() error { return ctrl.Relocate(t.ID, far, far) }); err != nil {
			return err
		}
		if err := p.timed("controller.unload", func() error { return ctrl.Unload(t.ID) }); err != nil {
			return err
		}
	}

	// Checkerboard: fill the fabric with small tiles, free every other
	// one. The largest mid task fits none of the holes.
	tile, err := decoded(ts.small[0])
	if err != nil {
		return err
	}
	if ctrl, err = newCtrl(); err != nil {
		return err
	}
	var tiles []fabric.TaskID
	for {
		t, err := ctrl.LoadDecodedPolicy(tile, nil)
		if errors.Is(err, controller.ErrNoSlot) {
			break
		}
		if err != nil {
			return err
		}
		tiles = append(tiles, t.ID)
	}
	for i := 0; i < len(tiles); i += 2 {
		if err := ctrl.Unload(tiles[i]); err != nil {
			return err
		}
	}
	big := ts.mid[0]
	for _, c := range ts.mid {
		if c.taskW*c.taskH > big.taskW*big.taskH {
			big = c
		}
	}
	bigDec, err := decoded(big)
	if err != nil {
		return err
	}
	for i := 0; i < probeIters; i++ {
		if err := p.timed("sched.place_frag", func() error {
			_, err := ctrl.LoadDecodedPolicy(bigDec, nil)
			switch {
			case err == nil:
				return fmt.Errorf("fragmented fabric admitted a %dx%d task", big.taskW, big.taskH)
			case !errors.Is(err, controller.ErrNoSlot):
				return err
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// repoAndPromote prices the disk tier: a crash-safe put and a
// verified get per fresh blob, and a two-tier store fetch that misses
// RAM and promotes from disk (the RAM tier holds one blob, so two
// blobs fetched in turn evict each other).
func (p *probe) repoAndPromote(dir string, fresh []*container) error {
	rp, err := repo.Open(filepath.Join(dir, "repo"), repo.Options{})
	if err != nil {
		return err
	}
	digests := make([]repo.Digest, len(fresh))
	for i, c := range fresh {
		if err := p.timed("repo.put", func() (err error) {
			digests[i], _, err = rp.Put(c.data)
			return err
		}); err != nil {
			return err
		}
	}
	for _, d := range digests {
		if err := p.timed("repo.get", func() error { _, err := rp.Get(d); return err }); err != nil {
			return err
		}
	}
	tierDisk, err := repo.Open(filepath.Join(dir, "tier"), repo.Options{})
	if err != nil {
		return err
	}
	tiered := store.NewTiered(1, tierDisk)
	var pair [2]store.Digest
	for i := range pair {
		ent, _, err := tiered.Put(fresh[i].data)
		if err != nil {
			return err
		}
		pair[i] = ent.Digest
	}
	for i := 0; i < probeIters; i++ {
		if err := p.timed("store.fetch_promote", func() error { _, err := tiered.Fetch(pair[i%2]); return err }); err != nil {
			return err
		}
	}
	if got := tiered.TierStats().Promotions; got != probeIters {
		return fmt.Errorf("store.fetch_promote: %d promotions in %d fetches", got, probeIters)
	}
	return nil
}

// metricsProbe is a registry shaped like a node's hot path: one
// labelled latency histogram per op.
type metricsProbe struct {
	reg *metrics.Registry
	lat *metrics.HistogramVec
}

func newMetricsProbe() *metricsProbe {
	reg := metrics.NewRegistry()
	return &metricsProbe{reg: reg, lat: reg.HistogramVec("bench_probe_op_duration_seconds", "Probe histogram.", nil, "op")}
}

// ringAndMetrics prices the two nanosecond-scale steps: a ring lookup
// for R owners on a three-node ring, and a histogram observe; and a
// registry render.
func (p *probe) ringAndMetrics(fresh []*container) error {
	ring := cluster.NewRing([]string{"http://node0", "http://node1", "http://node2"}, 0)
	digests := make([]repo.Digest, len(fresh))
	for i, c := range fresh {
		digests[i] = repo.DigestOf(c.data)
	}
	mp := newMetricsProbe()
	hist := mp.lat.With("load")
	for i := 0; i < probeIters; i++ {
		if err := p.timed("ring.lookup", func() error {
			for k := 0; k < perSpan; k++ {
				if len(ring.Lookup(digests[k%len(digests)], replicas)) != replicas {
					return errors.New("ring returned too few owners")
				}
			}
			return nil
		}); err != nil {
			return err
		}
		_ = p.timed("metrics.observe", func() error {
			for k := 0; k < perSpan; k++ {
				hist.Observe(float64(k) * 1e-6)
			}
			return nil
		})
		_ = p.timed("metrics.render", func() error {
			if mp.reg.Render() == "" {
				return errors.New("empty render")
			}
			return nil
		})
	}
	return nil
}

// batchPayload builds the JSON body of one 16-op batch of the
// workload's mix — what the gateway frames to a node.
func batchPayload(cfg *runConfig, ts *taskSet) ([]byte, error) {
	c := &client{w: cfg.w, gen: newOpGen(cfg.w, ts, cfg.seed, maxClients)}
	for c.gen.resident < residentCap/2 {
		ops, err := c.gen.round()
		if err != nil {
			return nil, err
		}
		c.settle(ops, make([]int64, len(ops)))
	}
	ops, err := c.gen.round()
	if err != nil {
		return nil, err
	}
	return c.batchBody(ops)
}

// transport prices the stream data plane: the frame codec on a batch
// payload, and a Stream.Call round trip to a node's /stream endpoint.
func (p *probe) transport(ctx context.Context, cfg *runConfig, ts *taskSet) error {
	body, err := batchPayload(cfg, ts)
	if err != nil {
		return err
	}
	for i := 0; i < probeIters; i++ {
		if err := p.timed("transport.frame_codec", func() error { return frameCodec(body) }); err != nil {
			return err
		}
	}
	node, err := newNode("", 0)
	if err != nil {
		return err
	}
	defer node.hs.Close()
	st := transport.Open(func(ctx context.Context) (net.Conn, error) {
		return transport.Dial(ctx, node.url)
	}, transport.Config{Compress: true})
	defer st.Close()
	ping := transport.EncodeMsg(transport.MsgPing, nil)
	for i := 0; i < probeIters; i++ {
		if err := p.timed("transport.call_rt", func() error {
			_, err := st.Call(ctx, ping, false)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// gateway prices the gateway as a difference of two measured paths:
// the same warm load and the same get sent through the gateway and
// straight to the node that owns the digest; and a fresh blob's
// POST /vbs through the gateway, which writes it to R nodes.
func (p *probe) gateway(ctx context.Context, cfg *runConfig, ts *taskSet, fresh []*container) error {
	fl, err := bootFleet(ctx, true, cfg.tmpRoot())
	if err != nil {
		return err
	}
	defer fl.close()
	urls := make([]string, len(fl.nodes))
	direct := map[string]*client{}
	for i, n := range fl.nodes {
		urls[i] = n.url
		direct[n.url] = &client{wire: newWire(n.url), epoch: time.Now()}
		defer direct[n.url].wire.close()
	}
	ring := cluster.NewRing(urls, 0)
	gw := &client{wire: newWire(fl.url), epoch: time.Now()}
	defer gw.wire.close()

	cycle := func(c *client, task *container, name string) error {
		var id int64
		if err := p.timed(name+".load", func() (err error) {
			id, _, err = c.load(ctx, task)
			return err
		}); err != nil {
			return err
		}
		if err := p.timed(name+".get", func() error {
			_, err := c.get(ctx, task.digest)
			return err
		}); err != nil {
			return err
		}
		_, err := c.unload(ctx, id)
		return err
	}
	// First touch stores and decodes each base on its owner and opens
	// the gateway's streams; it is not a sample.
	keep := p.tr
	p.tr = newTracer()
	for _, task := range ts.small {
		if err := cycle(gw, task, "warm"); err != nil {
			return err
		}
	}
	p.tr = keep
	for i := 0; i < probeIters; i++ {
		task := ts.small[i%len(ts.small)]
		owner := ring.Lookup(repo.DigestOf(task.data), replicas)[0]
		if err := cycle(gw, task, "gateway"); err != nil {
			return err
		}
		if err := cycle(direct[owner], task, "node"); err != nil {
			return err
		}
	}
	for _, c := range fresh {
		body, err := json.Marshal(map[string]string{"vbs": c.b64()})
		if err != nil {
			return err
		}
		if err := p.timed("gateway.put_fresh", func() error {
			_, err := gw.wire.expect(ctx, http.StatusCreated, http.MethodPost, "/vbs", body)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
