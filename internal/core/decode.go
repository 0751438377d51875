package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/devirt"
)

// Decode de-virtualizes the VBS into a raw bitstream covering the
// task's own w×h grid (the task placed at the origin), spreading the
// entries over workers as DecodeInto does. Decode(1) is the
// single-threaded reference decoder; the runtime controller wraps
// decoding with placement.
//
// Decoding is a pure function of the VBS contents: the same
// deterministic region router runs regardless of the final position,
// which is what makes the format relocatable. Wires missing at a
// particular position (fabric edges) are guaranteed unused by the
// encoder's feedback loop.
func (v *VBS) Decode(workers int) (*bitstream.Raw, error) {
	g := arch.Grid{Width: v.TaskW, Height: v.TaskH}
	out := bitstream.New(v.P, g)
	if err := v.DecodeInto(out, 0, 0, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto de-virtualizes the task into an existing fabric
// configuration with the task's south-west macro at (x0, y0). The
// target must be large enough to hold the task. Entries are decoded by
// the given worker count: 1 runs them serially in the caller's
// goroutine, 0 selects GOMAXPROCS. Entries cover disjoint macros, so
// workers write disjoint target vectors and the result is
// bit-identical whatever the count. Entries decode in-place through
// pooled region routers: at steady state the only writes are
// word-level ORs into the target's bit vectors and nothing is
// allocated.
func (v *VBS) DecodeInto(target *bitstream.Raw, x0, y0, workers int) error {
	if err := v.checkTarget(target, x0, y0); err != nil {
		return err
	}
	return v.eachEntryParallel(workers, func(i int) error {
		return v.decodeEntry(i, target, x0, y0)
	})
}

// decodeEntry is DecodeEntryInto with the entry named in the error.
func (v *VBS) decodeEntry(i int, target *bitstream.Raw, x0, y0 int) error {
	if err := v.DecodeEntryInto(i, target, x0, y0); err != nil {
		return fmt.Errorf("core: entry %d at region (%d,%d): %w",
			i, v.Entries[i].X, v.Entries[i].Y, err)
	}
	return nil
}

// checkTarget validates the VBS and the placement rectangle once per
// whole-task decode.
func (v *VBS) checkTarget(target *bitstream.Raw, x0, y0 int) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if target.P != v.P {
		return fmt.Errorf("core: decode onto %v fabric, task compiled for %v", target.P, v.P)
	}
	if x0 < 0 || y0 < 0 || x0+v.TaskW > target.G.Width || y0+v.TaskH > target.G.Height {
		return fmt.Errorf("core: task %dx%d at (%d,%d) exceeds %dx%d fabric",
			v.TaskW, v.TaskH, x0, y0, target.G.Width, target.G.Height)
	}
	return nil
}

// eachEntryParallel runs fn for every entry index, distributing the
// calls over the given worker count (0 selects GOMAXPROCS). Entries
// decode independently (the property Section II-C calls out), so this
// is the fan-out of every whole-task parallel decode. No entry is
// handed out after the first failure: a malformed container does not
// get the rest of its entries routed before the error comes back.
// Entries are handed out in index order, so every index below a failed
// one has already started and runs to completion; the error of the
// lowest failing index is returned, and the outcome does not depend on
// scheduling.
func (v *VBS) eachEntryParallel(workers int, fn func(i int) error) error {
	n := len(v.Entries)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					next.Store(int64(n)) // hand out nothing more
					mu.Lock()
					if i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Warm pre-builds the de-virtualization routing graphs for every
// distinct region shape this VBS decodes through (at most four: the
// nominal cluster and its edge truncations). A runtime manager calls
// this when a VBS is admitted to its store so the first load does not
// pay graph construction.
func (v *VBS) Warm() error {
	seen := make(map[devirt.Region]bool)
	for i := range v.Entries {
		e := &v.Entries[i]
		r := v.Region(e.X, e.Y)
		if seen[r] {
			continue
		}
		seen[r] = true
		if err := devirt.Warm(r); err != nil {
			return err
		}
	}
	return nil
}

// DecodeEntryInto de-virtualizes entry i directly into the target
// configuration, with the task's south-west macro at (x0, y0). Routed
// switch words, logic payloads and raw fallback payloads are OR-ed
// word-level into the target macros' bit vectors through a pooled
// region router — no per-entry member configurations are
// materialized. This is the one decode path: the whole-task decoders
// here and the controller's position-free Decoded all run on it.
//
// The caller is responsible for the placement rectangle being inside
// the target (DecodeInto checks it once for the whole task).
func (v *VBS) DecodeEntryInto(i int, target *bitstream.Raw, x0, y0 int) error {
	if i < 0 || i >= len(v.Entries) {
		return fmt.Errorf("core: entry %d out of range", i)
	}
	if target.P != v.P {
		return fmt.Errorf("core: decode onto %v fabric, task compiled for %v", target.P, v.P)
	}
	e := &v.Entries[i]
	cw, ch := v.RegionDims(e.X, e.Y)
	baseX := x0 + e.X*v.Cluster
	baseY := y0 + e.Y*v.Cluster
	switch {
	case e.Raw:
		if len(e.RawBits) != cw*ch {
			return fmt.Errorf("core: raw payload count %d, want %d", len(e.RawBits), cw*ch)
		}
		nlb := v.P.NLB()
		for m, rb := range e.RawBits {
			target.At(baseX+m%cw, baseY+m/cw).Vec().OrAt(rb, nlb)
		}
	case len(e.Conns) > 0:
		rt, err := devirt.AcquireRouter(v.Region(e.X, e.Y), false, false)
		if err != nil {
			return err
		}
		if err := routeEntry(rt, e); err != nil {
			rt.Release()
			return err
		}
		for m := 0; m < cw*ch; m++ {
			rt.MergeMember(m, target.At(baseX+m%cw, baseY+m/cw).Vec())
		}
		rt.Release()
	}
	for _, li := range e.Logic {
		j, mi := li.Member/v.Cluster, li.Member%v.Cluster
		if mi >= cw || j >= ch {
			return fmt.Errorf("core: logic member %d outside %dx%d region", li.Member, cw, ch)
		}
		target.At(baseX+mi, baseY+j).Vec().OrAt(li.Data, 0)
	}
	return nil
}

// routeEntry replays entry e's connection list on rt. Endpoint
// reservation first: the whole list is known before routing starts, so
// no connection may route through another's terminal without paying
// the reservation penalty.
func routeEntry(rt *devirt.Router, e *Entry) error {
	for _, c := range e.Conns {
		if err := rt.Reserve(c.In); err != nil {
			return err
		}
		if err := rt.Reserve(c.Out); err != nil {
			return err
		}
	}
	for k, c := range e.Conns {
		if err := rt.RouteConnection(c.In, c.Out); err != nil {
			return fmt.Errorf("connection %d (%d->%d): %w", k, c.In, c.Out, err)
		}
	}
	return nil
}
