package devirt

import (
	"container/heap"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// TestClusterAgreesWithMacroOnStraightRoutes: a straight track-to-track
// route through a 2x2 cluster must produce, in each traversed member,
// the same switch the single-macro router would choose — the cluster
// abstraction changes the coding granularity, not the physics.
func TestClusterAgreesWithMacroOnStraightRoutes(t *testing.T) {
	p := arch.PaperExample()
	r1 := Region{P: p, Nominal: 1, CW: 1, CH: 1}
	r2 := Region{P: p, Nominal: 2, CW: 2, CH: 2}
	for tr := 0; tr < p.W; tr++ {
		// Macro route W->E on track tr.
		m, err := NewRouter(r1, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RouteConnection(r1.CodeWest(0, tr), r1.CodeEast(0, tr)); err != nil {
			t.Fatal(err)
		}
		macroBits := m.Configs()[0].Vec()

		// Cluster route W->E on row 0, same track.
		c, err := NewRouter(r2, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RouteConnection(r2.CodeWest(0, tr), r2.CodeEast(0, tr)); err != nil {
			t.Fatal(err)
		}
		for member := 0; member < 2; member++ { // members (0,0) and (1,0)
			if !c.Configs()[member].Vec().Equal(macroBits) {
				t.Fatalf("track %d member %d: cluster route differs from macro route", tr, member)
			}
		}
	}
}

// TestRandomPairSequencesNeverCorrupt: random (possibly unroutable)
// connection sequences must never panic and must leave the router in a
// consistent state: every on switch joins two conductors owned by the
// same net.
func TestRandomPairSequencesNeverCorrupt(t *testing.T) {
	p := arch.Params{W: 6, K: 4}
	r := Region{P: p, Nominal: 2, CW: 2, CH: 2}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt, err := NewRouter(r, rng.Intn(2) == 0, rng.Intn(2) == 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			in := IOCode(rng.Intn(r.NumIOCodes()-1) + 1)
			out := IOCode(rng.Intn(r.NumIOCodes()-1) + 1)
			_ = rt.RouteConnection(in, out) // failures are fine
		}
		// Consistency: each member's on switches connect conductors of
		// one net.
		for mi, cfg := range rt.Configs() {
			j, i := mi/r.CW, mi%r.CW
			for _, si := range onSwitches(p, cfg) {
				sw := p.Switches()[si]
				a := r.resolveLocal(i, j, sw.A)
				b := r.resolveLocal(i, j, sw.B)
				oa, ob := rt.owner[a], rt.owner[b]
				if oa < 0 || ob < 0 || oa != ob {
					t.Fatalf("seed %d member %d: switch %d joins owners %d and %d",
						seed, mi, si, oa, ob)
				}
			}
		}
	}
}

// TestReserveSteersAroundEndpoints: with an alternative available, the
// router must avoid a reserved conductor; the reserved conductor must
// then still be claimable by its own connection.
func TestReserveSteersAroundEndpoints(t *testing.T) {
	p := arch.PaperExample()
	r := Region{P: p, Nominal: 1, CW: 1, CH: 1}
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve East track 2 (= HW(2)), then route West 1 -> East 3
	// (a track change that could pass through any HW via a pin wire).
	if err := rt.Reserve(r.CodeEast(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := rt.RouteConnection(r.CodeWest(0, 1), r.CodeEast(0, 3)); err != nil {
		t.Fatal(err)
	}
	if o, _ := rt.Owner(r.CodeEast(0, 2)); o != -1 {
		t.Fatal("router consumed the reserved conductor despite alternatives")
	}
	// The reserved endpoint still routes for its own connection.
	if err := rt.RouteConnection(r.CodeWest(0, 2), r.CodeEast(0, 2)); err != nil {
		t.Fatalf("reserved endpoint unusable by its own connection: %v", err)
	}
}

// --- Reference decoder -------------------------------------------------
//
// refRouter reconstructs the pre-optimization router: freshly allocated
// state, container/heap Dijkstra with (dist, cond) ordering, per-pop
// class-switch costs, full owner scans for seeds, the target queued like
// any conductor and the heap drained until it pops, a distance and a
// parent edge stored per relaxation — the implementation the pooled
// word-mask router replaced. The property tests below, the scene
// differential (exact_test.go) and the fuzz target assert the optimized
// router is bit-identical to it on every input.

type refCondDist struct {
	dist int32
	cond int32
}

type refHeap struct{ a []refCondDist }

func (h *refHeap) Len() int { return len(h.a) }
func (h *refHeap) Less(i, j int) bool {
	if h.a[i].dist != h.a[j].dist {
		return h.a[i].dist < h.a[j].dist
	}
	return h.a[i].cond < h.a[j].cond
}
func (h *refHeap) Swap(i, j int)      { h.a[i], h.a[j] = h.a[j], h.a[i] }
func (h *refHeap) Push(x interface{}) { h.a = append(h.a, x.(refCondDist)) }
func (h *refHeap) Pop() interface{} {
	last := len(h.a) - 1
	v := h.a[last]
	h.a = h.a[:last]
	return v
}

type refRouter struct {
	g                *regionGraph
	closedW, closedS bool
	owner            []int32
	reserved         []bool
	nets             int32
	configs          []*arch.MacroConfig
}

func newRefRouter(t testing.TB, r Region, closedW, closedS bool) *refRouter {
	t.Helper()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	n := r.NumConds()
	rt := &refRouter{g: graphFor(r), closedW: closedW, closedS: closedS,
		owner: make([]int32, n), reserved: make([]bool, n),
		configs: make([]*arch.MacroConfig, r.Members())}
	for i := range rt.owner {
		rt.owner[i] = -1
	}
	for i := range rt.configs {
		rt.configs[i] = arch.NewMacroConfig(r.P)
	}
	return rt
}

func (rt *refRouter) usable(c int) bool {
	r := rt.g.r
	pm := r.perMember()
	if c < r.Members()*pm {
		return true
	}
	rest := c - r.Members()*pm
	if rest < r.CH*r.P.W {
		return !rt.closedW
	}
	return !rt.closedS
}

func (rt *refRouter) condCost(c int) int32 {
	var base int32
	switch rt.g.class[c] {
	case classBoundaryWire:
		base = costBoundary
	case classInputPin, classOutputPin:
		base = costInputPin
	default:
		base = costInternal
	}
	if rt.reserved[c] {
		base += costReserved
	}
	return base
}

func (rt *refRouter) reserve(code IOCode) error {
	c, err := rt.g.r.CondForCode(code)
	if err != nil {
		return err
	}
	rt.reserved[c] = true
	return nil
}

func (rt *refRouter) routeConnection(in, out IOCode) error {
	r := rt.g.r
	a, err := r.CondForCode(in)
	if err != nil {
		return err
	}
	b, err := r.CondForCode(out)
	if err != nil {
		return err
	}
	if !rt.usable(a) || !rt.usable(b) {
		return errors.New("endpoint on closed fabric edge")
	}
	var net int32
	switch {
	case rt.owner[a] >= 0:
		net = rt.owner[a]
	default:
		net = rt.nets
		rt.nets++
		rt.owner[a] = net
	}
	switch {
	case rt.owner[b] == net:
		return nil
	case rt.owner[b] >= 0:
		return errors.New("endpoints belong to different nets")
	}
	return rt.route(net, b)
}

func (rt *refRouter) route(net int32, target int) error {
	n := len(rt.owner)
	seen := make([]bool, n)
	dist := make([]int32, n)
	par := make([]int32, n)
	parEdg := make([]edge, n)
	var pq refHeap
	for c, o := range rt.owner {
		if o != net {
			continue
		}
		seen[c] = true
		dist[c] = 0
		par[c] = -1
		heap.Push(&pq, refCondDist{0, int32(c)})
	}
	for pq.Len() > 0 {
		cd := heap.Pop(&pq).(refCondDist)
		c := int(cd.cond)
		if c == target {
			// Commit.
			for c := int32(target); c != -1 && rt.owner[c] != net; c = par[c] {
				rt.owner[c] = net
				e := parEdg[c]
				vec := rt.configs[e.member].Vec()
				for b := 0; b < int(e.nbits); b++ {
					vec.Set(int(e.first)+b, true)
				}
			}
			return nil
		}
		if cd.dist > dist[c] {
			continue
		}
		for k, end := rt.g.adjOff[c], rt.g.adjOff[c+1]; k < end; k++ {
			e := rt.g.edges[k]
			to := int(e.to)
			if to != target {
				if rt.owner[to] != -1 {
					continue
				}
				if rt.g.class[to] == classOutputPin {
					continue
				}
				if !rt.usable(to) {
					continue
				}
			}
			d := dist[c] + rt.condCost(to)
			if seen[to] && d >= dist[to] {
				continue
			}
			seen[to] = true
			dist[to] = d
			par[to] = int32(c)
			parEdg[to] = e
			heap.Push(&pq, refCondDist{d, int32(to)})
		}
	}
	return errors.New("no path")
}

// applyList reserves every endpoint and routes the pairs in order,
// returning the index of the first reservation or routing failure (-1
// when the whole list succeeds) — the exact decode protocol.
func applyList(reserve func(IOCode) error, route func(in, out IOCode) error, list [][2]IOCode) int {
	for i, p := range list {
		if reserve(p[0]) != nil || reserve(p[1]) != nil {
			return i
		}
	}
	for i, p := range list {
		if route(p[0], p[1]) != nil {
			return i
		}
	}
	return -1
}

// TestPooledDecoderMatchesReference is the equivalence property of the
// zero-allocation hot path: across region shapes (all cluster sizes 1
// to 4, truncated edge shapes included), random — valid, invalid and
// unroutable — connection lists, closed fabric edges, and repeated
// reuse of one pooled router, the pooled word-mask router must
// fail at exactly the same connection and produce exactly the same
// switch bits as the freshly-allocated reference decoder.
func TestPooledDecoderMatchesReference(t *testing.T) {
	shapes := []Region{
		{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1},
		{P: arch.Params{W: 6, K: 4}, Nominal: 2, CW: 2, CH: 2},
		{P: arch.Params{W: 6, K: 4}, Nominal: 2, CW: 1, CH: 2},
		{P: arch.Params{W: 5, K: 4}, Nominal: 3, CW: 3, CH: 3},
		{P: arch.Params{W: 5, K: 4}, Nominal: 3, CW: 2, CH: 3},
		{P: arch.Params{W: 4, K: 3}, Nominal: 4, CW: 4, CH: 4},
		{P: arch.Params{W: 4, K: 3}, Nominal: 4, CW: 4, CH: 1},
	}
	for _, r := range shapes {
		rt, err := AcquireRouter(r, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(r.NumConds())))
			closedW, closedS := rng.Intn(4) == 0, rng.Intn(4) == 0
			list := make([][2]IOCode, rng.Intn(18)+1)
			for i := range list {
				// Mostly in-range codes (occasionally null/out of range);
				// truncated shapes reject some in-range codes too.
				list[i][0] = IOCode(rng.Intn(r.NumIOCodes() + 2))
				list[i][1] = IOCode(rng.Intn(r.NumIOCodes() + 2))
			}

			ref := newRefRouter(t, r, closedW, closedS)
			refFail := applyList(ref.reserve, ref.routeConnection, list)

			// The same pooled router instance, Reset between lists, with
			// per-acquisition edge flags.
			rt.Reset()
			rt.setEdges(closedW, closedS)
			optFail := applyList(rt.Reserve, rt.RouteConnection, list)

			if refFail != optFail {
				t.Fatalf("shape %+v seed %d: reference fails at %d, optimized at %d",
					r, seed, refFail, optFail)
			}
			for m := range ref.configs {
				if !ref.configs[m].Vec().Equal(rt.Configs()[m].Vec()) {
					t.Fatalf("shape %+v seed %d member %d: decoded bits differ from reference",
						r, seed, m)
				}
			}
			for c := range ref.owner {
				if ref.owner[c] != rt.owner[c] {
					t.Fatalf("shape %+v seed %d cond %d: owner %d vs reference %d",
						r, seed, c, rt.owner[c], ref.owner[c])
				}
			}
		}
		rt.Release()
	}
}

// TestCodeTableMatchesCondForCode pins the precomputed code→cond table
// to the arithmetic CondForCode it replaces on the hot path.
func TestCodeTableMatchesCondForCode(t *testing.T) {
	shapes := []Region{
		{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1},
		{P: arch.Default(), Nominal: 2, CW: 2, CH: 2},
		{P: arch.Params{W: 5, K: 4}, Nominal: 3, CW: 2, CH: 1},
		{P: arch.Params{W: 4, K: 3}, Nominal: 4, CW: 3, CH: 4},
	}
	for _, r := range shapes {
		g := graphFor(r)
		for code := -1; code <= r.NumIOCodes(); code++ {
			want, err := r.CondForCode(IOCode(code))
			got := g.condFor(IOCode(code))
			switch {
			case err != nil && got != -1:
				t.Errorf("%+v code %d: table %d, arithmetic rejects (%v)", r, code, got, err)
			case err == nil && got != int32(want):
				t.Errorf("%+v code %d: table %d, arithmetic %d", r, code, got, want)
			}
		}
	}
}

// TestRouterResetIsComplete: after decoding an arbitrary list, Reset
// must leave no observable state behind — the next decode on the same
// router equals a decode on a fresh one.
func TestRouterResetIsComplete(t *testing.T) {
	r := Region{P: arch.Params{W: 6, K: 4}, Nominal: 2, CW: 2, CH: 2}
	rt, err := NewRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		list := make([][2]IOCode, rng.Intn(15)+1)
		for i := range list {
			list[i][0] = IOCode(rng.Intn(r.NumIOCodes()-1) + 1)
			list[i][1] = IOCode(rng.Intn(r.NumIOCodes()-1) + 1)
		}
		fresh, err := NewRouter(r, false, false)
		if err != nil {
			t.Fatal(err)
		}
		rt.Reset()
		// Blank means blank for the search state too: every steppable
		// conductor available again, nothing queued, no target marked.
		if !slices.Equal(rt.avail, fresh.avail) || !slices.Equal(rt.step, fresh.step) {
			t.Fatalf("round %d: avail/step after Reset differ from a fresh router's", round)
		}
		if !rt.fr.empty() || slices.ContainsFunc(rt.near, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("round %d: frontier or target marks not empty after Reset", round)
		}
		freshFail := applyList(fresh.Reserve, fresh.RouteConnection, list)
		reusedFail := applyList(rt.Reserve, rt.RouteConnection, list)
		if freshFail != reusedFail {
			t.Fatalf("round %d: fresh fails at %d, reused at %d", round, freshFail, reusedFail)
		}
		for m := range fresh.configs {
			if !fresh.configs[m].Vec().Equal(rt.configs[m].Vec()) {
				t.Fatalf("round %d member %d: reused router bits differ", round, m)
			}
		}
	}
}
