package netlist

import (
	"fmt"
	"sort"
)

// Simulator evaluates a Circuit cycle by cycle: combinational logic
// settles each cycle, then latches capture on the (implicit) clock
// edge. It is used to check functional equivalence across synthesis
// and packing transformations.
type Simulator struct {
	c     *Circuit
	order []CellID // topological order of LUT cells
	state map[NetID]bool
	ff    map[CellID]bool // latch state
}

// NewSimulator prepares a simulator; it fails if the combinational part
// of the circuit contains a cycle.
func NewSimulator(c *Circuit) (*Simulator, error) {
	order, err := topoOrderLUTs(c)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		c:     c,
		order: order,
		state: make(map[NetID]bool),
		ff:    make(map[CellID]bool),
	}, nil
}

// topoOrderLUTs orders LUT cells so every LUT appears after the drivers
// of its input nets (latch and input-pad outputs are sequential
// boundaries and need no ordering).
func topoOrderLUTs(c *Circuit) ([]CellID, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	mark := make([]int, len(c.Cells))
	var order []CellID
	var visit func(id CellID) error
	visit = func(id CellID) error {
		switch mark[id] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("netlist: combinational cycle through cell %q", c.Cells[id].Name)
		}
		mark[id] = visiting
		for _, in := range c.Cells[id].Inputs {
			drv := c.Nets[in].Driver
			if drv != NoCell && c.Cells[drv].Kind == CellLUT {
				if err := visit(drv); err != nil {
					return err
				}
			}
		}
		mark[id] = done
		order = append(order, id)
		return nil
	}
	for id := range c.Cells {
		if c.Cells[id].Kind == CellLUT {
			if err := visit(CellID(id)); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// Step applies one clock cycle: primary inputs take the given values,
// combinational logic settles, outputs are sampled, then latches
// capture. Unlisted inputs default to false.
func (s *Simulator) Step(inputs map[string]bool) map[string]bool {
	c := s.c
	// Drive primary inputs and latch outputs.
	for id, cell := range c.Cells {
		switch cell.Kind {
		case CellInput:
			s.state[cell.Output] = inputs[c.Nets[cell.Output].Name]
		case CellLatch:
			s.state[cell.Output] = s.ff[CellID(id)]
		}
	}
	// Settle combinational logic in topological order.
	for _, id := range s.order {
		cell := c.Cells[id]
		combo := 0
		for i, in := range cell.Inputs {
			if s.state[in] {
				combo |= 1 << uint(i)
			}
		}
		s.state[cell.Output] = cell.Truth.Get(combo)
	}
	// Sample primary outputs.
	out := make(map[string]bool)
	for _, cell := range c.Cells {
		if cell.Kind == CellOutput {
			out[c.Nets[cell.Inputs[0]].Name] = s.state[cell.Inputs[0]]
		}
	}
	// Clock edge: latches capture their D inputs.
	for id, cell := range c.Cells {
		if cell.Kind == CellLatch {
			s.ff[CellID(id)] = s.state[cell.Inputs[0]]
		}
	}
	return out
}

// InputNames returns the primary input names in sorted order.
func (s *Simulator) InputNames() []string {
	var names []string
	for _, cell := range s.c.Cells {
		if cell.Kind == CellInput {
			names = append(names, s.c.Nets[cell.Output].Name)
		}
	}
	sort.Strings(names)
	return names
}

// DesignSimulator evaluates a packed Design with the same clocking
// semantics as Simulator, so the two can be compared step by step.
type DesignSimulator struct {
	d     *Design
	order []BlockID
	state map[NetID]bool
	ff    map[BlockID]bool
}

// NewDesignSimulator prepares a packed-design simulator; it fails on
// combinational cycles (paths through unregistered logic blocks).
func NewDesignSimulator(d *Design) (*DesignSimulator, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	mark := make([]int, len(d.Blocks))
	var order []BlockID
	var visit func(id BlockID) error
	visit = func(id BlockID) error {
		switch mark[id] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("netlist: combinational cycle through block %q", d.Blocks[id].Name)
		}
		mark[id] = visiting
		for _, in := range d.Blocks[id].Inputs {
			if in == NoNet {
				continue
			}
			drv := d.Nets[in].Driver
			if drv != NoBlock && d.Blocks[drv].Kind == LogicBlock && !d.Blocks[drv].Registered {
				if err := visit(drv); err != nil {
					return err
				}
			}
		}
		mark[id] = done
		order = append(order, id)
		return nil
	}
	for id := range d.Blocks {
		if d.Blocks[id].Kind == LogicBlock && !d.Blocks[id].Registered {
			if err := visit(BlockID(id)); err != nil {
				return nil, err
			}
		}
	}
	// Registered blocks settle combinationally too (their LUT output is
	// captured at the clock edge); evaluate them after the pure
	// combinational cone.
	for id := range d.Blocks {
		if d.Blocks[id].Kind == LogicBlock && d.Blocks[id].Registered {
			order = append(order, BlockID(id))
		}
	}
	return &DesignSimulator{
		d:     d,
		order: order,
		state: make(map[NetID]bool),
		ff:    make(map[BlockID]bool),
	}, nil
}

// Step applies one clock cycle and returns the primary output values.
func (s *DesignSimulator) Step(inputs map[string]bool) map[string]bool {
	d := s.d
	for id, b := range d.Blocks {
		switch b.Kind {
		case InputPad:
			s.state[b.Output] = inputs[b.Name]
		case LogicBlock:
			if b.Registered {
				s.state[b.Output] = s.ff[BlockID(id)]
			}
		}
	}
	lutOut := make(map[BlockID]bool)
	for _, id := range s.order {
		b := d.Blocks[id]
		combo := 0
		for i, in := range b.Inputs {
			if in != NoNet && s.state[in] {
				combo |= 1 << uint(i)
			}
		}
		v := b.Truth.Get(combo)
		lutOut[id] = v
		if !b.Registered {
			s.state[b.Output] = v
		}
	}
	out := make(map[string]bool)
	for _, b := range d.Blocks {
		if b.Kind == OutputPad {
			out[b.Name] = s.state[b.Inputs[0]]
		}
	}
	for id, b := range d.Blocks {
		if b.Kind == LogicBlock && b.Registered {
			s.ff[BlockID(id)] = lutOut[BlockID(id)]
		}
	}
	return out
}
