package controller

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/sched"
)

// recountFree counts unowned macros the slow way, macro by macro.
func recountFree(f *fabric.Fabric) int {
	n := 0
	for y := 0; y < f.Grid().Height; y++ {
		for x := 0; x < f.Grid().Width; x++ {
			if f.OwnerAt(x, y) == fabric.NoTask {
				n++
			}
		}
	}
	return n
}

// TestOccupancyMatchesRecountUnderChurn: through random loads (policy-
// placed and pinned, many refused), unloads, relocations (many refused
// on overlap or seam conflict, so the restore path runs) and
// compactions, Stats' O(1) occupancy equals a recount of the owner
// table and the summed footprint of the tracked tasks.
func TestOccupancyMatchesRecountUnderChurn(t *testing.T) {
	var decs []*Decoded
	for _, dim := range [][2]int{{1, 1}, {2, 2}, {3, 1}} {
		d, err := DecodeVBS(feedthroughTask(t, dim[0], dim[1]), 1)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, d)
	}
	quiet, err := DecodeVBS(quietTask(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	decs = append(decs, quiet)

	c := newController(t, 12, 6, 8, 1)
	g := c.Fabric().Grid()
	rng := rand.New(rand.NewSource(51))
	area := map[fabric.TaskID]int{}
	var ids []fabric.TaskID
	refusedLoads, refusedMoves, compactMoves := 0, 0, 0
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // load
			d := decs[rng.Intn(len(decs))]
			var task *Task
			var err error
			if rng.Intn(2) == 0 {
				task, err = c.LoadDecodedPolicy(d, sched.Default())
			} else {
				task, err = c.LoadDecodedAt(d, rng.Intn(g.Width+1)-1, rng.Intn(g.Height+1)-1)
			}
			if err != nil {
				refusedLoads++
				break
			}
			ids = append(ids, task.ID)
			area[task.ID] = d.VBS.TaskW * d.VBS.TaskH
		case op < 6 && len(ids) > 0: // unload
			i := rng.Intn(len(ids))
			if err := c.Unload(ids[i]); err != nil {
				t.Fatal(err)
			}
			delete(area, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		case op < 9 && len(ids) > 0: // relocate
			id := ids[rng.Intn(len(ids))]
			if err := c.Relocate(id, rng.Intn(g.Width+1)-1, rng.Intn(g.Height+1)-1); err != nil {
				if errors.Is(err, ErrRestoreFailed) {
					t.Fatalf("step %d: %v", step, err)
				}
				refusedMoves++
			}
		default:
			moved, err := c.Compact()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			compactMoves += moved
		}
		used := 0
		for _, a := range area {
			used += a
		}
		st := c.Stats()
		free := recountFree(c.Fabric())
		if st.FreeMacros != free || st.TotalMacros-st.FreeMacros != used ||
			st.Occupancy != float64(used)/float64(g.NumMacros()) || st.Tasks != len(ids) {
			t.Fatalf("step %d: Stats = %+v; recount says %d free, tasks own %d", step, st, free, used)
		}
	}
	if refusedLoads == 0 || refusedMoves == 0 || compactMoves == 0 {
		t.Errorf("churn too tame: %d refused loads, %d refused moves, %d compaction moves",
			refusedLoads, refusedMoves, compactMoves)
	}
}

// bruteForceSlot picks a slot the slow way: every position row-major
// through the dry-run admission check, keeping the first admissible
// one — or, for best-fit, the first with the fewest free macros in the
// ring around it.
func bruteForceSlot(c *Controller, d *Decoded, bestFit bool) (bx, by int, ok bool) {
	f := c.Fabric()
	g := f.Grid()
	w, h := d.VBS.TaskW, d.VBS.TaskH
	bestGap := -1
	for y := 0; y < g.Height; y++ {
		for x := 0; x < g.Width; x++ {
			if !canPlace(c, d, x, y) {
				continue
			}
			if !bestFit {
				return x, y, true
			}
			gap := 0
			for ry := y - 1; ry <= y+h; ry++ {
				for rx := x - 1; rx <= x+w; rx++ {
					inside := rx >= x && rx < x+w && ry >= y && ry < y+h
					if !inside && g.Contains(rx, ry) && f.OwnerAt(rx, ry) == fabric.NoTask {
						gap++
					}
				}
			}
			if bestGap < 0 || gap < bestGap {
				bx, by, bestGap = x, y, gap
			}
		}
	}
	return bx, by, bestGap >= 0
}

// TestPoliciesPickBruteForceSlots: the eight small containers loaded in
// sequence under each policy land where the brute-force scan says, and
// the plane they leave is exactly the OR of each task's decoded
// configurations at its slot — placement decides where, never what.
func TestPoliciesPickBruteForceSlots(t *testing.T) {
	decs := smallDecoded(t)
	p := arch.Default()
	g := arch.Grid{Width: 64, Height: 64}
	for _, name := range sched.Names() {
		pol, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fabric.New(p, g)
		if err != nil {
			t.Fatal(err)
		}
		c := New(f, 1)
		want := bitstream.New(p, g)
		for i, d := range decs {
			wx, wy, ok := bruteForceSlot(c, d, name == "best-fit")
			if !ok {
				t.Fatalf("%s: no brute-force slot for container %d", name, i)
			}
			task, err := c.LoadDecodedPolicy(d, pol)
			if err != nil {
				t.Fatalf("%s: container %d: %v", name, i, err)
			}
			if task.X != wx || task.Y != wy {
				t.Errorf("%s: container %d placed at (%d,%d), brute force picks (%d,%d)",
					name, i, task.X, task.Y, wx, wy)
			}
			for dy := 0; dy < d.VBS.TaskH; dy++ {
				for dx := 0; dx < d.VBS.TaskW; dx++ {
					if cfg := d.ConfigAt(dx, dy); cfg != nil {
						want.At(task.X+dx, task.Y+dy).Vec().Or(cfg.Vec())
					}
				}
			}
		}
		if !f.Config().Equal(want) {
			t.Errorf("%s: fabric plane differs from the OR of the decoded tasks at their slots", name)
		}
	}
}
