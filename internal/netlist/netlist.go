// Package netlist represents logic circuits at two levels: the generic
// cell level produced by synthesis front-ends (LUTs of any arity,
// latches, primary I/Os — the BLIF subset VTR consumes), and the packed
// design level (one K-LUT + optional flip-flop per logic block) that the
// placer, router and bitstream generator operate on.
package netlist

import (
	"fmt"

	"repro/internal/bits"
)

// CellID indexes a Circuit's cell table.
type CellID int

// NetID indexes a Circuit's or Design's net table.
type NetID int

// NoCell marks an absent cell reference.
const NoCell CellID = -1

// NoNet marks an absent net reference.
const NoNet NetID = -1

// CellKind classifies generic cells.
type CellKind int

// Generic cell kinds.
const (
	CellInput  CellKind = iota // primary input pad
	CellOutput                 // primary output pad
	CellLUT                    // combinational lookup table
	CellLatch                  // D flip-flop
)

func (k CellKind) String() string {
	switch k {
	case CellInput:
		return "input"
	case CellOutput:
		return "output"
	case CellLUT:
		return "lut"
	case CellLatch:
		return "latch"
	default:
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
}

// Cell is one generic netlist element.
type Cell struct {
	Name   string
	Kind   CellKind
	Inputs []NetID // LUT fanins / latch D / output-pad source
	Output NetID   // driven net (NoNet for output pads)
	// Truth holds the LUT function over len(Inputs) variables
	// (2^len(Inputs) bits, input combination i at bit i, input 0 the
	// least-significant selector). Nil for non-LUT cells.
	Truth *bits.Vec
}

// Net is a signal with one driver and a set of sink pins.
type Net struct {
	Name   string
	Driver CellID
	Sinks  []CellPin
}

// CellPin identifies one input pin of a cell.
type CellPin struct {
	Cell  CellID
	Input int // index into Cell.Inputs
}

// Circuit is a generic (pre-packing) netlist.
type Circuit struct {
	Name  string
	Cells []Cell
	Nets  []Net

	netByName map[string]NetID
}

// NewCircuit returns an empty circuit with the given model name.
func NewCircuit(name string) *Circuit {
	return &Circuit{Name: name, netByName: make(map[string]NetID)}
}

// NetByName returns the net with the given name, creating it (with no
// driver) if absent.
func (c *Circuit) NetByName(name string) NetID {
	if c.netByName == nil {
		c.netByName = make(map[string]NetID)
		for i, n := range c.Nets {
			c.netByName[n.Name] = NetID(i)
		}
	}
	if id, ok := c.netByName[name]; ok {
		return id
	}
	id := NetID(len(c.Nets))
	c.Nets = append(c.Nets, Net{Name: name, Driver: NoCell})
	c.netByName[name] = id
	return id
}

func (c *Circuit) addCell(cell Cell) CellID {
	id := CellID(len(c.Cells))
	c.Cells = append(c.Cells, cell)
	if cell.Output != NoNet {
		c.Nets[cell.Output].Driver = id
	}
	for i, in := range cell.Inputs {
		c.Nets[in].Sinks = append(c.Nets[in].Sinks, CellPin{Cell: id, Input: i})
	}
	return id
}

// AddInput adds a primary input pad driving the named net.
func (c *Circuit) AddInput(net string) CellID {
	return c.addCell(Cell{Name: net, Kind: CellInput, Output: c.NetByName(net)})
}

// AddOutput adds a primary output pad sinking the named net.
func (c *Circuit) AddOutput(net string) CellID {
	return c.addCell(Cell{
		Name: net, Kind: CellOutput,
		Inputs: []NetID{c.NetByName(net)}, Output: NoNet,
	})
}

// AddLUT adds a LUT cell computing truth over the named input nets,
// driving the named output net. truth must have 2^len(inputs) bits.
func (c *Circuit) AddLUT(output string, inputs []string, truth *bits.Vec) (CellID, error) {
	if truth == nil || truth.Len() != 1<<uint(len(inputs)) {
		return NoCell, fmt.Errorf("netlist: LUT %q: truth table must have %d bits", output, 1<<uint(len(inputs)))
	}
	ins := make([]NetID, len(inputs))
	for i, name := range inputs {
		ins[i] = c.NetByName(name)
	}
	return c.addCell(Cell{
		Name: output, Kind: CellLUT,
		Inputs: ins, Output: c.NetByName(output), Truth: truth,
	}), nil
}

// AddLatch adds a D flip-flop from net d to net q.
func (c *Circuit) AddLatch(d, q string) CellID {
	return c.addCell(Cell{
		Name: q, Kind: CellLatch,
		Inputs: []NetID{c.NetByName(d)}, Output: c.NetByName(q),
	})
}

// Validate checks structural sanity: every net has exactly one driver,
// every sink reference is consistent, LUT truth tables are sized, and
// no cell reads an undriven net.
func (c *Circuit) Validate() error {
	for i, n := range c.Nets {
		if n.Driver == NoCell {
			return fmt.Errorf("netlist: net %q (%d) has no driver", n.Name, i)
		}
		if int(n.Driver) >= len(c.Cells) {
			return fmt.Errorf("netlist: net %q driver out of range", n.Name)
		}
		if c.Cells[n.Driver].Output != NetID(i) {
			return fmt.Errorf("netlist: net %q driver mismatch", n.Name)
		}
		for _, s := range n.Sinks {
			if int(s.Cell) >= len(c.Cells) || s.Input >= len(c.Cells[s.Cell].Inputs) {
				return fmt.Errorf("netlist: net %q sink out of range", n.Name)
			}
			if c.Cells[s.Cell].Inputs[s.Input] != NetID(i) {
				return fmt.Errorf("netlist: net %q sink back-reference mismatch", n.Name)
			}
		}
	}
	for i, cell := range c.Cells {
		if cell.Kind == CellLUT {
			if cell.Truth == nil || cell.Truth.Len() != 1<<uint(len(cell.Inputs)) {
				return fmt.Errorf("netlist: cell %d (%q) has malformed truth table", i, cell.Name)
			}
		}
		if cell.Kind == CellLatch && len(cell.Inputs) != 1 {
			return fmt.Errorf("netlist: latch %q must have one input", cell.Name)
		}
	}
	return nil
}

// BlockKind classifies packed design blocks.
type BlockKind int

// Packed block kinds.
const (
	LogicBlock BlockKind = iota // K-LUT + optional FF
	InputPad
	OutputPad
)

func (k BlockKind) String() string {
	switch k {
	case LogicBlock:
		return "lb"
	case InputPad:
		return "inpad"
	case OutputPad:
		return "outpad"
	default:
		return fmt.Sprintf("BlockKind(%d)", int(k))
	}
}

// BlockID indexes a Design's block table.
type BlockID int

// NoBlock marks an absent block reference.
const NoBlock BlockID = -1

// Block is one packed element: a logic block (K-LUT + FF) or an I/O pad.
type Block struct {
	Name string
	Kind BlockKind
	// Inputs are the nets feeding LUT inputs 0..len-1 (or, for an
	// output pad, the single sunk net). Entries may be NoNet for
	// unused LUT inputs.
	Inputs []NetID
	// Output is the net driven by the block (NoNet for output pads).
	Output NetID
	// Truth is the LUT function over K variables (2^K bits); nil for
	// pads.
	Truth *bits.Vec
	// Registered reports whether the block output passes through the
	// flip-flop.
	Registered bool
}

// DesignNet is a packed-level net: one driver block, sinks on specific
// block input pins.
type DesignNet struct {
	Name   string
	Driver BlockID
	Sinks  []BlockPin
}

// BlockPin identifies one LUT input (or pad input) of a block.
type BlockPin struct {
	Block BlockID
	Input int
}

// Design is a packed netlist ready for placement and routing on a
// K-LUT architecture.
type Design struct {
	Name   string
	K      int
	Blocks []Block
	Nets   []DesignNet
}

// AddNet appends a new undriven net and returns its id.
func (d *Design) AddNet(name string) NetID {
	id := NetID(len(d.Nets))
	d.Nets = append(d.Nets, DesignNet{Name: name, Driver: NoBlock})
	return id
}

// AddInputPad appends an input pad driving a fresh net named name and
// returns the block and net ids.
func (d *Design) AddInputPad(name string) (BlockID, NetID) {
	net := d.AddNet(name)
	id := BlockID(len(d.Blocks))
	d.Blocks = append(d.Blocks, Block{Name: name, Kind: InputPad, Output: net})
	d.Nets[net].Driver = id
	return id, net
}

// AddLogicBlock appends a logic block computing truth (2^K bits) over
// the given input nets, driving a fresh net named name. Inputs may
// contain NoNet entries for unused LUT pins.
func (d *Design) AddLogicBlock(name string, inputs []NetID, truth *bits.Vec, registered bool) (BlockID, NetID) {
	net := d.AddNet(name)
	id := BlockID(len(d.Blocks))
	b := Block{
		Name: name, Kind: LogicBlock,
		Inputs: append([]NetID(nil), inputs...), Output: net,
		Truth: truth, Registered: registered,
	}
	d.Blocks = append(d.Blocks, b)
	d.Nets[net].Driver = id
	for pin, in := range b.Inputs {
		if in != NoNet {
			d.Nets[in].Sinks = append(d.Nets[in].Sinks, BlockPin{Block: id, Input: pin})
		}
	}
	return id, net
}

// AddOutputPad appends an output pad sinking net src.
func (d *Design) AddOutputPad(name string, src NetID) BlockID {
	id := BlockID(len(d.Blocks))
	d.Blocks = append(d.Blocks, Block{
		Name: name, Kind: OutputPad, Inputs: []NetID{src}, Output: NoNet,
	})
	d.Nets[src].Sinks = append(d.Nets[src].Sinks, BlockPin{Block: id, Input: 0})
	return id
}

// CountKind returns the number of blocks of kind k.
func (d *Design) CountKind(k BlockKind) int {
	n := 0
	for _, b := range d.Blocks {
		if b.Kind == k {
			n++
		}
	}
	return n
}

// NumLogicBlocks returns the logic-block count (the "LBs" column of
// Table II).
func (d *Design) NumLogicBlocks() int { return d.CountKind(LogicBlock) }

// Validate checks the packed design's structural invariants.
func (d *Design) Validate() error {
	if d.K < 1 {
		return fmt.Errorf("netlist: design %q has K=%d", d.Name, d.K)
	}
	for i, b := range d.Blocks {
		switch b.Kind {
		case LogicBlock:
			if len(b.Inputs) > d.K {
				return fmt.Errorf("netlist: block %q has %d inputs, K=%d", b.Name, len(b.Inputs), d.K)
			}
			if b.Output == NoNet {
				return fmt.Errorf("netlist: logic block %q drives no net", b.Name)
			}
			if b.Truth == nil || b.Truth.Len() != 1<<uint(d.K) {
				return fmt.Errorf("netlist: block %q truth table malformed", b.Name)
			}
		case InputPad:
			if len(b.Inputs) != 0 || b.Output == NoNet {
				return fmt.Errorf("netlist: input pad %q malformed", b.Name)
			}
		case OutputPad:
			if len(b.Inputs) != 1 || b.Output != NoNet {
				return fmt.Errorf("netlist: output pad %q malformed", b.Name)
			}
		}
		for _, in := range b.Inputs {
			if in == NoNet {
				continue
			}
			if int(in) >= len(d.Nets) {
				return fmt.Errorf("netlist: block %d input net out of range", i)
			}
		}
	}
	for i, n := range d.Nets {
		if n.Driver == NoBlock || int(n.Driver) >= len(d.Blocks) {
			return fmt.Errorf("netlist: net %q (%d) driver invalid", n.Name, i)
		}
		if d.Blocks[n.Driver].Output != NetID(i) {
			return fmt.Errorf("netlist: net %q driver back-reference mismatch", n.Name)
		}
		for _, s := range n.Sinks {
			if int(s.Block) >= len(d.Blocks) {
				return fmt.Errorf("netlist: net %q sink block out of range", n.Name)
			}
			b := d.Blocks[s.Block]
			if s.Input >= len(b.Inputs) || b.Inputs[s.Input] != NetID(i) {
				return fmt.Errorf("netlist: net %q sink pin mismatch at block %q", n.Name, b.Name)
			}
		}
	}
	return nil
}

// Stats summarizes a packed design.
type Stats struct {
	Blocks, LogicBlocks, InputPads, OutputPads int
	Nets                                       int
	Registered                                 int
	TotalSinks                                 int
	MaxFanout                                  int
	AvgFanout                                  float64
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{Blocks: len(d.Blocks), Nets: len(d.Nets)}
	for _, b := range d.Blocks {
		switch b.Kind {
		case LogicBlock:
			s.LogicBlocks++
			if b.Registered {
				s.Registered++
			}
		case InputPad:
			s.InputPads++
		case OutputPad:
			s.OutputPads++
		}
	}
	for _, n := range d.Nets {
		s.TotalSinks += len(n.Sinks)
		if len(n.Sinks) > s.MaxFanout {
			s.MaxFanout = len(n.Sinks)
		}
	}
	if s.Nets > 0 {
		s.AvgFanout = float64(s.TotalSinks) / float64(s.Nets)
	}
	return s
}
