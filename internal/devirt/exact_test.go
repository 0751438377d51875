package devirt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
)

// refRoute is the search Router.route replaced, kept verbatim as the
// reference: the target is pushed like any other conductor (at its
// reserved cost) and the queue drains until it pops; every edge asks
// owner, class, usable and reserved separately instead of the packed
// step table. It shares the router's state, scratch and commit.
func refRoute(rt *Router, net int32, target int) error {
	rt.epoch++
	rt.bq.reset()
	for _, c := range rt.claimed {
		if rt.owner[c] != net {
			continue
		}
		rt.seenEp[c] = rt.epoch
		rt.dist[c] = 0
		rt.par[c] = -1
		rt.bq.push(0, c)
	}
	g := rt.g
	for {
		c32, d, ok := rt.bq.pop()
		if !ok {
			break
		}
		c := int(c32)
		if c == target {
			rt.commit(net, target)
			return nil
		}
		if d > rt.dist[c] {
			continue
		}
		for k, end := g.adjOff[c], g.adjOff[c+1]; k < end; k++ {
			e := &g.edges[k]
			to := int(e.to)
			if to != target {
				if rt.owner[to] != -1 {
					continue
				}
				if g.class[to] == classOutputPin {
					continue
				}
				if !rt.usable(to) {
					continue
				}
			}
			nd := d + refBaseCost(g.class[to])
			if rt.reserved[to] {
				nd += costReserved
			}
			if rt.seenEp[to] == rt.epoch && nd >= rt.dist[to] {
				continue
			}
			rt.seenEp[to] = rt.epoch
			rt.dist[to] = nd
			rt.par[to] = int32(c)
			rt.parEdg[to] = *e
			rt.bq.push(nd, e.to)
		}
	}
	return fmt.Errorf("devirt: no path to conductor %d for net %d", target, net)
}

func refBaseCost(cl condClass) int32 {
	switch cl {
	case classBoundaryWire:
		return costBoundary
	case classInputPin, classOutputPin:
		return costInputPin
	default:
		return costInternal
	}
}

// refRouteConnection is RouteConnection over refRoute.
func refRouteConnection(rt *Router, in, out IOCode) error {
	a := rt.g.condFor(in)
	if a < 0 {
		_, err := rt.g.r.CondForCode(in)
		return err
	}
	b := rt.g.condFor(out)
	if b < 0 {
		_, err := rt.g.r.CondForCode(out)
		return err
	}
	if !rt.usable(int(a)) || !rt.usable(int(b)) {
		return fmt.Errorf("devirt: endpoint on closed fabric edge (%d->%d)", in, out)
	}
	net := rt.owner[a]
	if net < 0 {
		net = rt.nets
		rt.nets++
		rt.claim(a, net)
	}
	switch {
	case rt.owner[b] == net:
		return nil
	case rt.owner[b] >= 0:
		return fmt.Errorf("devirt: endpoints %d and %d belong to different nets", in, out)
	}
	return refRoute(rt, net, int(b))
}

// errKindNames are the routing failures the scenes must reach.
var errKindNames = []string{"no path", "different nets", "closed fabric edge", "out of range", "outside region"}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEarlyExitMatchesFullDrain is the exactness property of the
// early exit and of the step table: over seeded random scenes — every
// cluster size, truncated shapes, closed west/south edges, endpoints
// drawn from a small pool so nets get extended and collide, lists long
// enough to run the region out of paths — the router and the
// full-drain reference must agree after every single connection on
// the error text, on every claimed conductor's owner and on every
// member's configuration bits. Both routers are reused across scenes,
// so Reset and setEdges keeping step current is under test too.
func TestEarlyExitMatchesFullDrain(t *testing.T) {
	shapes := []Region{
		{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1},
		{P: arch.Params{W: 3, K: 3}, Nominal: 1, CW: 1, CH: 1},
		{P: arch.Params{W: 6, K: 4}, Nominal: 2, CW: 2, CH: 2},
		{P: arch.Params{W: 3, K: 4}, Nominal: 2, CW: 1, CH: 2},
		{P: arch.Params{W: 5, K: 4}, Nominal: 3, CW: 3, CH: 3},
		{P: arch.Params{W: 3, K: 3}, Nominal: 3, CW: 2, CH: 3},
		{P: arch.Params{W: 4, K: 3}, Nominal: 4, CW: 4, CH: 4},
		{P: arch.Params{W: 3, K: 3}, Nominal: 4, CW: 4, CH: 1},
		{P: arch.Params{W: 3, K: 3}, Nominal: 4, CW: 3, CH: 2},
	}
	const scenesPerShape = 64 // 9 shapes × 64 = 576 scenes
	errKinds := map[string]int{}
	for _, r := range shapes {
		opt, err := NewRouter(r, false, false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRouter(r, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < scenesPerShape; seed++ {
			rng := rand.New(rand.NewSource(seed<<16 + int64(r.NumConds())))
			closedW, closedS := rng.Intn(4) == 0, rng.Intn(4) == 0
			// Endpoints come from a pool a fraction of the list's size,
			// so the same code is named by several connections.
			pool := make([]IOCode, rng.Intn(12)+4)
			for i := range pool {
				pool[i] = IOCode(rng.Intn(r.NumIOCodes()+1) + 1) // rarely out of range
			}
			list := make([][2]IOCode, rng.Intn(4*r.P.W*r.Nominal)+2)
			for i := range list {
				list[i] = [2]IOCode{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			}

			for _, rt := range []*Router{opt, ref} {
				rt.Reset()
				rt.setEdges(closedW, closedS)
			}
			for _, p := range list {
				for _, code := range p {
					if a, b := errText(opt.Reserve(code)), errText(ref.Reserve(code)); a != b {
						t.Fatalf("%+v seed %d: Reserve(%d): %q, reference %q", r, seed, code, a, b)
					}
				}
			}
			for k, p := range list {
				got := errText(opt.RouteConnection(p[0], p[1]))
				want := errText(refRouteConnection(ref, p[0], p[1]))
				if got != want {
					t.Fatalf("%+v seed %d connection %d (%d->%d): error %q, reference %q",
						r, seed, k, p[0], p[1], got, want)
				}
				for _, kind := range errKindNames {
					if strings.Contains(got, kind) {
						errKinds[kind]++
					}
				}
				gc, gotOwn := opt.ClaimedConds()
				wc, wantOwn := ref.ClaimedConds()
				if !slices.Equal(gc, wc) || !slices.Equal(gotOwn, wantOwn) {
					t.Fatalf("%+v seed %d connection %d: claimed %v owners %v, reference %v owners %v",
						r, seed, k, gc, gotOwn, wc, wantOwn)
				}
				for m := range ref.configs {
					if !opt.configs[m].Vec().Equal(ref.configs[m].Vec()) {
						t.Fatalf("%+v seed %d connection %d member %d: config bits differ from reference",
							r, seed, k, m)
					}
				}
			}
			// step must describe the state the reference fields hold.
			for c := range opt.step {
				want := int32(0)
				if opt.owner[c] == -1 && opt.g.class[c] != classOutputPin && opt.usable(c) {
					want = refBaseCost(opt.g.class[c])
					if opt.reserved[c] {
						want += costReserved
					}
				}
				if opt.step[c] != want {
					t.Fatalf("%+v seed %d cond %d: step %d, want %d", r, seed, c, opt.step[c], want)
				}
			}
		}
	}
	// The scenes must actually reach the failure modes they claim to.
	for _, kind := range errKindNames {
		if errKinds[kind] == 0 {
			t.Errorf("no scene produced a %q error; kinds seen: %v", kind, errKinds)
		}
	}
}
