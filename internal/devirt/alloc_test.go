package devirt

import (
	"testing"

	"repro/internal/arch"
)

// TestRouteSteadyStateAllocFree pins the zero-allocation property of
// the decode hot path: once a pooled router's scratch has grown to its
// working size, Reset + edge flags + reserve + route must not allocate
// at all — the step table is rewritten in place by every one of them.
// A regression here fails `go test ./...`, not just the benchmarks.
func TestRouteSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := Region{P: arch.PaperExample(), Nominal: 2, CW: 2, CH: 2}
	rt, err := AcquireRouter(r, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Release()
	list := [][2]IOCode{
		{r.CodeWest(0, 2), r.CodeEast(0, 2)},
		{r.CodeSouth(1, 4), r.CodeNorth(1, 4)},
		{r.CodePin(0, 0, 0), r.CodePin(1, 1, 2)},
		{r.CodeWest(1, 0), r.CodePin(0, 1, 3)},
		{r.CodeWest(0, 1), r.CodeEast(0, 3)}, // track change via a pin
	}
	decode := func() {
		rt.Reset()
		rt.setEdges(true, true) // close and reopen: both rewrite step entries
		rt.setEdges(false, false)
		for _, p := range list {
			if err := rt.Reserve(p[0]); err != nil {
				t.Fatal(err)
			}
			if err := rt.Reserve(p[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range list {
			if err := rt.RouteConnection(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode() // grow the undo lists and net chain heads once
	if avg := testing.AllocsPerRun(200, decode); avg != 0 {
		t.Errorf("steady-state decode allocates %.2f times per run, want 0", avg)
	}
}

// TestAcquireReleaseSteadyStateAllocs: the pooled acquire/decode/release
// cycle — what every region decode on the runtime load path pays — must
// stay allocation-free at steady state, modulo the rare pool eviction
// under GC pressure (hence the small tolerance rather than zero).
func TestAcquireReleaseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under -race")
	}
	r := Region{P: arch.PaperExample(), Nominal: 2, CW: 2, CH: 2}
	closedS := false
	cycle := func() {
		closedS = !closedS // the pooled router's step table flips edges in place
		rt, err := AcquireRouter(r, false, closedS)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RouteConnection(r.CodeWest(0, 2), r.CodeEast(0, 2)); err != nil {
			t.Fatal(err)
		}
		rt.Release()
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg > 1 {
		t.Errorf("pooled decode cycle allocates %.2f times per run, want ~0", avg)
	}
}
