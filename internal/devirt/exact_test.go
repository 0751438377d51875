package devirt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
)

// errKindNames are the routing failures the scenes must reach.
var errKindNames = []string{"no path", "different nets", "closed fabric edge", "out of range", "outside region"}

// errKind reduces an error to the routing failure it names ("" for
// nil): the router and the reference word their errors differently.
func errKind(err error) string {
	if err == nil {
		return ""
	}
	for _, kind := range errKindNames {
		if strings.Contains(err.Error(), kind) {
			return kind
		}
	}
	return err.Error()
}

// exactShapes are the regions the differential tests route: every
// cluster size, truncated shapes, and the architecture the bench
// decodes ({W:20,K:6}: 268 conductors in 5 words at 2×2, 912 in 15 at
// 4×4), so multi-word rows and the bit 63/64 boundaries are crossed.
var exactShapes = []Region{
	{P: arch.PaperExample(), Nominal: 1, CW: 1, CH: 1},
	{P: arch.Params{W: 3, K: 3}, Nominal: 1, CW: 1, CH: 1},
	{P: arch.Params{W: 6, K: 4}, Nominal: 2, CW: 2, CH: 2},
	{P: arch.Params{W: 3, K: 4}, Nominal: 2, CW: 1, CH: 2},
	{P: arch.Params{W: 5, K: 4}, Nominal: 3, CW: 3, CH: 3},
	{P: arch.Params{W: 3, K: 3}, Nominal: 3, CW: 2, CH: 3},
	{P: arch.Params{W: 4, K: 3}, Nominal: 4, CW: 4, CH: 4},
	{P: arch.Params{W: 3, K: 3}, Nominal: 4, CW: 4, CH: 1},
	{P: arch.Params{W: 3, K: 3}, Nominal: 4, CW: 3, CH: 2},
	{P: arch.Params{W: 20, K: 6}, Nominal: 2, CW: 2, CH: 2},
	{P: arch.Params{W: 20, K: 6}, Nominal: 4, CW: 4, CH: 4},
	{P: arch.Params{W: 20, K: 6}, Nominal: 4, CW: 4, CH: 3},
}

// checkAgainstReference compares everything a decode can observe —
// every conductor's owner and every member's configuration bits — and
// the router's own bookkeeping: avail bit c set iff step[c] != 0.
func checkAgainstReference(t testing.TB, opt *Router, ref *refRouter, where string) {
	t.Helper()
	if !slices.Equal(opt.owner, ref.owner) {
		t.Fatalf("%s: owners %v, reference %v", where, opt.owner, ref.owner)
	}
	for m := range ref.configs {
		if !opt.configs[m].Vec().Equal(ref.configs[m].Vec()) {
			t.Fatalf("%s member %d: config bits differ from reference", where, m)
		}
	}
	for c, s := range opt.step {
		if avail := opt.avail.has(int32(c)); avail != (s != 0) {
			t.Fatalf("%s cond %d: avail %v, step %d", where, c, avail, s)
		}
	}
}

// TestEarlyExitMatchesFullDrain is the exactness property of the word
// mask search — early exit, first-offer-is-final, bitset frontier,
// first-edge commit: over seeded random scenes — every cluster size,
// truncated shapes, closed west/south edges, endpoints drawn from a
// small pool so nets get extended and collide, lists long enough to run
// the region out of paths — the router and the heap reference (target
// queued like any conductor, drained until it pops, distances and
// parent edges stored per relaxation) must agree after every single
// connection on the error kind, on every conductor's owner and on every
// member's configuration bits. The router is reused across scenes, so
// Reset and setEdges keeping step and avail current is under test too.
func TestEarlyExitMatchesFullDrain(t *testing.T) {
	const scenesPerShape = 64 // 12 shapes × 64 = 768 scenes
	errKinds := map[string]int{}
	for _, r := range exactShapes {
		opt, err := NewRouter(r, false, false)
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

			opt.Reset()
			opt.setEdges(closedW, closedS)
			ref := newRefRouter(t, r, closedW, closedS)
			for _, p := range list {
				for _, code := range p {
					if a, b := errKind(opt.Reserve(code)), errKind(ref.reserve(code)); a != b {
						t.Fatalf("%+v seed %d: Reserve(%d): %q, reference %q", r, seed, code, a, b)
					}
				}
			}
			for k, p := range list {
				got := errKind(opt.RouteConnection(p[0], p[1]))
				want := errKind(ref.routeConnection(p[0], p[1]))
				if got != want {
					t.Fatalf("%+v seed %d connection %d (%d->%d): error %q, reference %q",
						r, seed, k, p[0], p[1], got, want)
				}
				errKinds[got]++
				checkAgainstReference(t, opt, ref, fmt.Sprintf("%+v seed %d connection %d", r, seed, k))
			}
			// step must describe the state the reference fields hold.
			for c := range opt.step {
				want := int32(0)
				if ref.owner[c] == -1 && ref.g.class[c] != classOutputPin && ref.usable(c) {
					want = ref.condCost(c)
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
