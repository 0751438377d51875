// Package repro reproduces "Design Flow and Run-Time Management for
// Compressed FPGA Configurations" (Huriaux, Courtay, Sentieys, DATE
// 2015): the Virtual Bit-Stream (VBS) compressed configuration format,
// the offline CAD flow that generates it, and the runtime controller
// that de-virtualizes and relocates tasks on a simulated island-style
// FPGA fabric.
//
// This package is the high-level facade: Flow runs the complete
// offline pipeline (synthesis front end, placement, routing, raw
// bitstream generation, VBS encoding) with sensible defaults. The
// building blocks live in internal/ packages: arch (architecture
// model), synth/place/route (the CAD substrate), bitstream (raw
// configurations), core (the VBS format and encoder), devirt (the
// de-virtualization router), and controller/fabric (the runtime side).
package repro

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/bitstream"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/rrg"
	"repro/internal/synth"
)

// Flow configures the offline VBS generation pipeline (the paper's
// Figure 3: synthesis, pack, place, route, vbsgen).
type Flow struct {
	// K is the LUT size (default 6).
	K int
	// W is the channel width (default 20, the paper's normalized
	// width). Set to 0 with AutoWidth to search for the minimum.
	W int
	// AutoWidth routes at the minimum feasible channel width instead
	// of W.
	AutoWidth bool
	// Cluster is the VBS coding granularity (default 1).
	Cluster int
	// GridSize overrides the logic grid side (default: smallest square
	// holding the logic blocks).
	GridSize int
	// Seed drives placement and annealing (default 1).
	Seed int64
	// PlaceEffort scales annealing moves (default 10, VPR-like; use 1
	// for quick runs).
	PlaceEffort float64
}

// NewFlow returns a Flow with the paper's defaults.
func NewFlow() *Flow {
	return &Flow{K: 6, W: 20, Cluster: 1, Seed: 1, PlaceEffort: 10}
}

// Compiled bundles every artifact of one pipeline run.
type Compiled struct {
	Design    *netlist.Design
	Grid      arch.Grid
	Placement *place.Placement
	Graph     *rrg.Graph
	Routing   *route.Result
	Raw       *bitstream.Raw
	VBS       *core.VBS
	Stats     core.EncodeStats
	// ChannelWidth is the width actually routed at.
	ChannelWidth int
}

// CompileBLIF synthesizes a BLIF netlist and runs the full pipeline.
func (f *Flow) CompileBLIF(r io.Reader) (*Compiled, error) {
	c, err := netlist.ParseBLIF(r)
	if err != nil {
		return nil, err
	}
	d, err := synth.Synthesize(c, f.kOrDefault())
	if err != nil {
		return nil, err
	}
	return f.Compile(d)
}

func (f *Flow) kOrDefault() int {
	if f.K == 0 {
		return 6
	}
	return f.K
}

// Compile places, routes and encodes a packed design.
func (f *Flow) Compile(d *netlist.Design) (*Compiled, error) {
	k := f.kOrDefault()
	if d.K != k {
		return nil, fmt.Errorf("repro: design is K=%d, flow is K=%d", d.K, k)
	}
	size := f.GridSize
	if size == 0 {
		size = 1
		for size*size < d.NumLogicBlocks() {
			size++
		}
		// Ensure pads fit the ring too.
		pads := d.CountKind(netlist.InputPad) + d.CountKind(netlist.OutputPad)
		for arch.GridForSize(size).NumPerimeter() < pads {
			size++
		}
	}
	grid := arch.GridForSize(size)

	effort := f.PlaceEffort
	if effort == 0 {
		effort = 10
	}
	pl, err := place.Place(d, grid, place.Options{Seed: f.Seed, InnerNum: effort})
	if err != nil {
		return nil, err
	}

	var (
		res *route.Result
		w   int
	)
	if f.AutoWidth {
		w, res, err = route.FindMCW(d, pl, k, route.Options{})
		if err != nil {
			return nil, err
		}
	} else {
		w = f.W
		if w == 0 {
			w = 20
		}
		gr, err := rrg.Build(arch.Params{W: w, K: k}, grid)
		if err != nil {
			return nil, err
		}
		res, err = route.Route(d, pl, gr, route.Options{})
		if err != nil {
			return nil, err
		}
	}

	raw, err := bitstream.Generate(d, pl, res)
	if err != nil {
		return nil, err
	}
	cluster := f.Cluster
	if cluster == 0 {
		cluster = 1
	}
	v, stats, err := core.Encode(d, pl, res, core.EncodeOptions{Cluster: cluster})
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Design:       d,
		Grid:         grid,
		Placement:    pl,
		Graph:        res.Graph,
		Routing:      res,
		Raw:          raw,
		VBS:          v,
		Stats:        *stats,
		ChannelWidth: w,
	}, nil
}

// Verify checks that the compiled VBS decodes into a configuration
// electrically equivalent to the design's netlist (the encoder already
// guarantees this; Verify re-proves it from the artifacts).
func (c *Compiled) Verify() error {
	decoded, err := c.VBS.Decode(1)
	if err != nil {
		return err
	}
	return bitstream.Verify(decoded, c.Design, c.Placement, c.Graph)
}

// NewFabric builds a blank fabric compatible with a compiled task,
// scaled by the given factor in each dimension (1 = exactly the task's
// grid).
func (c *Compiled) NewFabric(scale int) (*fabric.Fabric, error) {
	if scale < 1 {
		scale = 1
	}
	g := arch.Grid{Width: c.Grid.Width * scale, Height: c.Grid.Height * scale}
	return fabric.New(c.VBS.P, g)
}

// NewController wraps a fabric in a runtime reconfiguration manager.
func NewController(f *fabric.Fabric, workers int) *controller.Controller {
	return controller.New(f, workers)
}
