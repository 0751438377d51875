package controller

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/devirt"
	"repro/internal/fabric"
	"repro/internal/loadgen"
	"repro/internal/sched"
)

// feedthroughTask hand-builds a w×h-macro VBS in which every macro
// routes its west boundary wire to its east boundary wire. Two such
// tasks abutting horizontally contend for every shared channel wire,
// so a free slot between two of them passes the overlap check but
// fails seam analysis — the expensive rejection mode of placement.
func feedthroughTask(b testing.TB, w, h int) *core.VBS {
	b.Helper()
	p := arch.Params{W: 8, K: 6}
	r := devirt.Region{P: p, Nominal: 1, CW: 1, CH: 1}
	v := &core.VBS{P: p, Cluster: 1, TaskW: w, TaskH: h}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v.Entries = append(v.Entries, core.Entry{
				X: x, Y: y,
				Conns: []core.Conn{{In: r.CodeWest(0, 0), Out: r.CodeEast(0, 0)}},
			})
		}
	}
	if err := v.Validate(); err != nil {
		b.Fatal(err)
	}
	return v
}

// fragmentedController builds the placement worst case on a side×side
// fabric: k-wide columns of feed-through blockers with k-wide free
// strips between them. Every free strip admits the k×k candidate
// geometrically but fails seam analysis against the blockers on both
// sides; only the strip tail at the bottom-right (where one blocker is
// omitted) accepts it. A placement scan therefore rejects dozens of
// full-size candidate slots — each costing a full write/erase in the
// seed's probing — before succeeding.
func fragmentedController(b *testing.B, side, k int) (*Controller, *Decoded) {
	b.Helper()
	v := feedthroughTask(b, k, k)
	d, err := DecodeVBS(v, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fabric.New(arch.Params{W: 8, K: 6}, arch.Grid{Width: side, Height: side})
	if err != nil {
		b.Fatal(err)
	}
	c := New(f, 1)
	lastX := (side - k) / (2 * k) * (2 * k)
	lastY := (side - k) / k * k
	for x := 0; x+k <= side; x += 2 * k {
		for y := 0; y+k <= side; y += k {
			if x == lastX && y == lastY {
				continue // omit the last blocker: the landing zone
			}
			if _, err := c.LoadDecodedAt(d, x, y); err != nil {
				b.Fatalf("blocker at (%d,%d): %v", x, y, err)
			}
		}
	}
	return c, d
}

// loadWriteScan reproduces the seed's placement loop: every candidate
// slot is probed by fully committing the decode (allocate, write, seam
// analysis) and erasing it again on failure.
func loadWriteScan(c *Controller, d *Decoded) (*Task, error) {
	g := c.Fabric().Grid()
	v := d.VBS
	for y := 0; y+v.TaskH <= g.Height; y++ {
		for x := 0; x+v.TaskW <= g.Width; x++ {
			if c.Fabric().OwnerAt(x, y) != fabric.NoTask {
				continue
			}
			if t, err := c.LoadDecodedAt(d, x, y); err == nil {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("no slot")
}

// BenchmarkFragmentedLoad compares placement on a fragmented fabric:
// dryrun is LoadDecodedPolicy with first fit (dry-run admission, one committed
// write), writescan is the seed's write/erase probing. Run with
// -benchtime=1x in CI as a smoke test; run normally to compare.
func BenchmarkFragmentedLoad(b *testing.B) {
	const (
		side = 24
		k    = 4
	)
	run := func(load func(*Controller, *Decoded) (*Task, error)) func(*testing.B) {
		return func(b *testing.B) {
			c, d := fragmentedController(b, side, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := load(c, d)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Unload(t.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("dryrun", run(func(c *Controller, d *Decoded) (*Task, error) {
		return c.LoadDecodedPolicy(d, nil)
	}))
	b.Run("writescan", run(loadWriteScan))
}

// smallDecoded decodes the eight loadgen containers (seeds 1..8) the
// serve benchmarks load, for the default architecture.
func smallDecoded(tb testing.TB) []*Decoded {
	tb.Helper()
	p := arch.Default()
	out := make([]*Decoded, 8)
	for i := range out {
		data, err := loadgen.GenTask(int64(i+1), p.W, p.K)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := core.Parse(data)
		if err != nil {
			tb.Fatal(err)
		}
		if out[i], err = DecodeVBS(v, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// BenchmarkPlaceWarm is the placement share of a warm load as the
// daemon pays it: a 64×64 default-architecture fabric with seven of the
// eight small containers resident; one iteration ranks the fabric
// (Stats), places the eighth under the default policy and unloads the
// oldest resident task.
func BenchmarkPlaceWarm(b *testing.B) {
	decs := smallDecoded(b)
	f, err := fabric.New(arch.Default(), arch.Grid{Width: 64, Height: 64})
	if err != nil {
		b.Fatal(err)
	}
	c := New(f, 1)
	pol := sched.Default()
	var resident []fabric.TaskID
	for i := 0; i < 7; i++ {
		t, err := c.LoadDecodedPolicy(decs[i], pol)
		if err != nil {
			b.Fatal(err)
		}
		resident = append(resident, t.ID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Stats().FreeMacros == 0 {
			b.Fatal("fabric full")
		}
		t, err := c.LoadDecodedPolicy(decs[(i+7)%8], pol)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Unload(resident[0]); err != nil {
			b.Fatal(err)
		}
		resident = append(resident[1:], t.ID)
	}
}
