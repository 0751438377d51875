package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix against one fleet shape. Names are
// permanent: every performance claim in this repository names one of
// them, and BENCHMARK.json repeats name and why.
type workload struct {
	name string
	why  string
	// stream names the op stream the workload draws: two workloads
	// with one stream send, seed for seed, the very same ops.
	stream string
	// clustered selects gateway + 3 disk-backed nodes (R=2) over a
	// single RAM-only node; batched sends each round as one
	// POST /tasks:batch instead of 16 requests.
	clustered bool
	batched   bool
	// mix is the load:get:unload weight of the op draw.
	mix [3]int
	// freshShare is the share of loads that send a never-seen
	// variant; the rest re-load one of the warm bases.
	freshShare float64
	// mid draws bases (and variants) from the 18 mid containers
	// instead of the 8 small ones.
	mid bool
	// freshPerSec sizes the variant pool minted in set-up: fresh loads
	// one client is expected to send per second, with headroom. A run
	// that outlasts the pool mints in place (variantPool.next).
	freshPerSec float64
}

// roundOps is the number of ops a client draws at a time: the size of
// one batch on cluster_batch, and the group the batch_* metrics time
// on the other workloads, so the two cluster workloads send the very
// same op stream.
const roundOps = 16

// residentCap bounds the tasks one client keeps loaded. With at most
// four clients the fleet never holds more than 32 tasks, far below
// fabric capacity: a 409 is a failure, never a capacity reject.
const residentCap = 8

// recentDigests is how far back a cold get reaches.
const recentDigests = 64

var workloads = []workload{
	{
		name:   "single_warm",
		why:    "Service floor: repeated loads of 8 small containers on one node; HTTP, JSON, SHA-256, store hit, placement and fabric write with decode, repo, gateway and transport idle.",
		stream: "warm",
		mix:    [3]int{20, 60, 20},
	},
	{
		name:        "single_cold",
		why:         "First load of a new task: every load is a fresh variant of 18 mid containers (c=1,2,4), so parse, warm and de-virtualization dominate and the decoded cache never hits.",
		stream:      "cold",
		mix:         [3]int{45, 10, 45},
		freshShare:  1,
		mid:         true,
		freshPerSec: 400,
	},
	{
		name:        "cluster_hop",
		why:         "Prices the gateway: the single_warm mix through ring lookup and an HTTP node hop per op on 3 disk-backed nodes, with 10% fresh loads paying repo write-through and R=2 replication.",
		stream:      "cluster",
		clustered:   true,
		mix:         [3]int{20, 60, 20},
		freshShare:  0.1,
		freshPerSec: 60,
	},
	{
		name:        "cluster_batch",
		why:         "The cluster_hop op stream sent 16 ops per POST /tasks:batch: same gateway, transport and nodes used through stream fan-out, so a batching gain that taxes the per-request path shows.",
		stream:      "cluster",
		clustered:   true,
		batched:     true,
		mix:         [3]int{20, 60, 20},
		freshShare:  0.1,
		freshPerSec: 200,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bases returns the containers a workload loads and measures its
// compress_ratio over.
func (w *workload) bases(ts *taskSet) []*container {
	if w.mid {
		return ts.mid
	}
	return ts.small
}

type opKind uint8

const (
	opLoad opKind = iota
	opGet
	opUnload
	nOpKinds
)

var opNames = [nOpKinds]string{"load", "get", "unload"}

// op is one drawn operation. A load carries its container, a get the
// digest to fetch, an unload the position of its victim in the
// client's resident list as it stood when the round began.
type op struct {
	kind   opKind
	task   *container
	digest string
	victim int
}

// opGen draws one client's op stream. The stream is a pure function
// of (workload, seed, client index): nothing the daemons reply feeds
// back into it, which is what lets two runs of one seed — and the two
// cluster workloads — send the same ops. The generator tracks only
// how many tasks the client holds; the client maps victim positions
// to the task ids it was given.
type opGen struct {
	w        *workload
	rng      *rand.Rand
	bases    []*container
	pool     *variantPool
	resident int
	recent   []string
}

// clientSeed spreads (seed, op stream, client) into independent PRNG
// sequences; which tells the op draw from the variant bits.
func clientSeed(seed int64, w *workload, client int, which int64) int64 {
	h := seed
	for _, c := range w.stream {
		h = h*1099511628211 + int64(c)
	}
	return h*1000003 + int64(client)*101 + which
}

func newOpGen(w *workload, ts *taskSet, seed int64, client int) *opGen {
	bases := w.bases(ts)
	return &opGen{
		w:     w,
		rng:   rand.New(rand.NewSource(clientSeed(seed, w, client, 1))),
		bases: bases,
		pool:  newVariantPool(bases, clientSeed(seed, w, client, 2)),
	}
}

// round draws the next roundOps operations. A drawn op that cannot
// run — a load at the resident cap, an unload with nothing left to
// unload, a get before any digest is known — becomes the next
// feasible kind, so every op the generator emits must succeed.
func (g *opGen) round() ([]op, error) {
	ops := make([]op, 0, roundOps)
	avail := make([]int, g.resident)
	for i := range avail {
		avail[i] = i
	}
	held := g.resident
	for len(ops) < roundOps {
		kind, err := g.resolve(g.draw(), held, len(avail))
		if err != nil {
			return nil, err
		}
		switch kind {
		case opLoad:
			c := g.bases[g.rng.Intn(len(g.bases))]
			if g.rng.Float64() < g.w.freshShare {
				var err error
				if c, err = g.pool.next(); err != nil {
					return nil, err
				}
			}
			ops = append(ops, op{kind: opLoad, task: c})
			held++
			if g.w.mid {
				g.recent = append(g.recent, c.digest)
				if len(g.recent) > recentDigests {
					g.recent = g.recent[1:]
				}
			}
		case opGet:
			var d string
			if g.w.mid {
				d = g.recent[g.rng.Intn(len(g.recent))]
			} else {
				d = g.bases[g.rng.Intn(len(g.bases))].digest
			}
			ops = append(ops, op{kind: opGet, digest: d})
		case opUnload:
			k := g.rng.Intn(len(avail))
			ops = append(ops, op{kind: opUnload, victim: avail[k]})
			avail[k] = avail[len(avail)-1]
			avail = avail[:len(avail)-1]
			held--
		}
	}
	g.resident = held
	return ops, nil
}

// forget resets what the generator remembers of the client's state —
// for a client that has unloaded everything and starts over.
func (g *opGen) forget() {
	g.resident, g.recent = 0, nil
}

// fallback lists, per drawn kind, what it becomes when infeasible.
var fallback = [nOpKinds][2]opKind{
	opLoad:   {opUnload, opGet},
	opGet:    {opLoad, opUnload},
	opUnload: {opLoad, opGet},
}

// resolve returns the drawn kind, or its first feasible fallback.
func (g *opGen) resolve(drawn opKind, held, avail int) (opKind, error) {
	for _, kind := range [...]opKind{drawn, fallback[drawn][0], fallback[drawn][1]} {
		if g.feasible(kind, held, avail) {
			return kind, nil
		}
	}
	return 0, fmt.Errorf("op generator: no feasible op (holding %d tasks)", held)
}

func (g *opGen) draw() opKind {
	n := g.rng.Intn(g.w.mix[0] + g.w.mix[1] + g.w.mix[2])
	switch {
	case n < g.w.mix[0]:
		return opLoad
	case n < g.w.mix[0]+g.w.mix[1]:
		return opGet
	}
	return opUnload
}

func (g *opGen) feasible(kind opKind, held, avail int) bool {
	switch kind {
	case opLoad:
		return held < residentCap
	case opGet:
		// Small bases are stored by the preload; a cold get needs a
		// digest this client has sent.
		return !g.w.mid || len(g.recent) > 0
	}
	return avail > 0
}
