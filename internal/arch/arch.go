// Package arch models the island-style FPGA architecture of the paper
// (Section II-A): a grid of macros, each containing one logic block
// (K-input LUT plus flip-flop), the adjacent horizontal (ChanX) and
// vertical (ChanY) routing channel segments, and one switch box.
//
// The package fixes the exact programmable-switch inventory of Eq. (1):
//
//	Nraw = NLB + 6*(NS + NC+) + 3*NCT
//
// with NLB = 2^K + 1, NS = W (one disjoint switch-box point per track,
// six pairwise switches each), NC+ = L*(W-1) cross-shaped pin junctions
// (six transistors each) and NCT = L T-shaped pin junctions (three
// transistors each). For the paper's example (K=6, W=5, L=7) this gives
// Nraw = 284 and a macro I/O code space of 4W+L+1 = 28 values coded on
// M = 5 bits, exactly as in Section II-B.
//
// # Geometry
//
// Macro (x, y) owns the following conductors:
//
//   - HW(t): its horizontal wire t, starting at switch box SB(x,y) and
//     running east to SB(x+1,y). Its far end is the macro's East
//     boundary I/O t, which is the same conductor as the West boundary
//     I/O t of macro (x+1, y).
//   - VW(t): its vertical wire t, running north to SB(x,y+1); its far
//     end is the North boundary I/O (= South I/O of macro (x, y+1)).
//   - PW(p): the wire of logic-block pin p. Pin 0 is the LB output,
//     pins 1..K are LUT inputs. Pins 0..ceil(L/2)-1 tap ChanX (the
//     horizontal wires), the rest tap ChanY.
//
// The switch box SB(x,y) joins, per track t, the four incident wires
// {HW(x-1,y,t), VW(x,y-1,t), HW(x,y,t), VW(x,y,t)} with six pairwise
// switches; the two incoming neighbours' wires appear inside macro
// (x,y) as the InW(t) and InS(t) conductors.
package arch

import "fmt"

// Params describes one architecture instance. The zero value is not
// valid; use Validate (or New) before relying on derived quantities.
type Params struct {
	// W is the routing channel width (tracks per channel).
	W int
	// K is the LUT input count; the logic block holds one K-LUT and one
	// flip-flop, so it exposes L = K+1 pins.
	K int
}

// Default returns the architecture evaluated in the paper's experiments:
// 6-input LUTs and the normalized channel width of 20 tracks.
func Default() Params { return Params{W: 20, K: 6} }

// PaperExample returns the W=5 architecture of the worked example in
// Section II-B (Figure 1), with Nraw = 284 and M = 5.
func PaperExample() Params { return Params{W: 5, K: 6} }

// Validate reports whether the parameters describe a buildable fabric.
func (p Params) Validate() error {
	if p.W < 1 {
		return fmt.Errorf("arch: channel width W=%d, need >= 1", p.W)
	}
	if p.K < 1 || p.K > 16 {
		return fmt.Errorf("arch: LUT size K=%d, need 1..16", p.K)
	}
	return nil
}

// L returns the number of logic-block pins (K inputs + 1 output).
func (p Params) L() int { return p.K + 1 }

// NLB returns the size in bits of the logic-block configuration:
// 2^K LUT bits plus one flip-flop enable bit.
func (p Params) NLB() int { return 1<<uint(p.K) + 1 }

// NS returns the number of switch-box switch points (one per track).
func (p Params) NS() int { return p.W }

// NCross returns NC+, the number of cross-shaped (4-way) pin junctions.
func (p Params) NCross() int { return p.L() * (p.W - 1) }

// NTee returns NCT, the number of T-shaped (3-way) pin junctions.
func (p Params) NTee() int { return p.L() }

// NRaw returns the raw configuration size of one macro in bits,
// Eq. (1) of the paper.
func (p Params) NRaw() int {
	return p.NLB() + 6*(p.NS()+p.NCross()) + 3*p.NTee()
}

// NumIOCodes returns the size of the macro I/O code space,
// 4W + L + 1 (code 0 is the null endpoint).
func (p Params) NumIOCodes() int { return 4*p.W + p.L() + 1 }

// PinsOnChanX returns how many of the L pins tap the horizontal channel;
// the remaining pins tap the vertical channel.
func (p Params) PinsOnChanX() int { return (p.L() + 1) / 2 }

// PinChannelIsX reports whether pin p taps ChanX (horizontal wires).
func (p Params) PinChannelIsX(pin int) bool { return pin < p.PinsOnChanX() }

// OutputPin returns the pin index of the logic-block output.
func (p Params) OutputPin() int { return 0 }

// InputPin returns the pin index of LUT input i (0-based).
func (p Params) InputPin(i int) int { return i + 1 }

// Side identifies one side of a macro (or cluster) boundary.
type Side int

// Boundary sides in canonical I/O numbering order.
const (
	West Side = iota
	South
	East
	North
)

var sideNames = [...]string{"W", "S", "E", "N"}

func (s Side) String() string {
	if s < West || s > North {
		return fmt.Sprintf("Side(%d)", int(s))
	}
	return sideNames[s]
}

// Cond identifies one electrical conductor inside a macro.
// The ordering is fixed and load-bearing (it defines deterministic
// tie-breaking in the de-virtualization router):
//
//	[0, W)        HW(t)   own horizontal wire t (East I/O t)
//	[W, 2W)       VW(t)   own vertical wire t   (North I/O t)
//	[2W, 3W)      InW(t)  west neighbour's horizontal wire t (West I/O t)
//	[3W, 4W)      InS(t)  south neighbour's vertical wire t  (South I/O t)
//	[4W, 4W+L)    PW(p)   logic-block pin wires
type Cond int

// CondNone marks the absence of a conductor.
const CondNone Cond = -1

// CondKind classifies a conductor.
type CondKind int

// Conductor kinds, in index order.
const (
	KindHW CondKind = iota
	KindVW
	KindInW
	KindInS
	KindPin
)

var kindNames = [...]string{"HW", "VW", "InW", "InS", "PW"}

func (k CondKind) String() string {
	if k < KindHW || k > KindPin {
		return fmt.Sprintf("CondKind(%d)", int(k))
	}
	return kindNames[k]
}

// NumConds returns the number of conductors per macro (4W + L).
func (p Params) NumConds() int { return 4*p.W + p.L() }

// CondHW returns the conductor of the macro's own horizontal wire t.
func (p Params) CondHW(t int) Cond { p.checkTrack(t); return Cond(t) }

// CondVW returns the conductor of the macro's own vertical wire t.
func (p Params) CondVW(t int) Cond { p.checkTrack(t); return Cond(p.W + t) }

// CondInW returns the conductor of the west neighbour's horizontal wire
// t as seen at this macro's switch box.
func (p Params) CondInW(t int) Cond { p.checkTrack(t); return Cond(2*p.W + t) }

// CondInS returns the conductor of the south neighbour's vertical wire t.
func (p Params) CondInS(t int) Cond { p.checkTrack(t); return Cond(3*p.W + t) }

// CondWire returns the conductor of wire kind k (HW, VW, InW or InS) on
// track t: the inverse of CondInfo for channel wires.
func (p Params) CondWire(k CondKind, t int) Cond {
	if k < KindHW || k > KindInS {
		panic(fmt.Sprintf("arch: %v is not a wire kind", k))
	}
	p.checkTrack(t)
	return Cond(int(k)*p.W + t)
}

// CondPin returns the conductor of logic-block pin wire p.
func (p Params) CondPin(pin int) Cond {
	if pin < 0 || pin >= p.L() {
		panic(fmt.Sprintf("arch: pin %d out of range [0,%d)", pin, p.L()))
	}
	return Cond(4*p.W + pin)
}

func (p Params) checkTrack(t int) {
	if t < 0 || t >= p.W {
		panic(fmt.Sprintf("arch: track %d out of range [0,%d)", t, p.W))
	}
}

// CondInfo decomposes a conductor into its kind and index (track for
// wires, pin number for pin wires).
func (p Params) CondInfo(c Cond) (CondKind, int) {
	i := int(c)
	switch {
	case i >= 0 && i < p.W:
		return KindHW, i
	case i < 2*p.W:
		return KindVW, i - p.W
	case i < 3*p.W:
		return KindInW, i - 2*p.W
	case i < 4*p.W:
		return KindInS, i - 3*p.W
	case i < 4*p.W+p.L():
		return KindPin, i - 4*p.W
	}
	panic(fmt.Sprintf("arch: conductor %d out of range", i))
}

// CondName renders a conductor for diagnostics, e.g. "HW3" or "PW0".
func (p Params) CondName(c Cond) string {
	if c == CondNone {
		return "none"
	}
	k, i := p.CondInfo(c)
	return fmt.Sprintf("%s%d", k, i)
}

// IOCode is a macro boundary I/O index as stored in the Virtual
// Bit-Stream: 0 is the null endpoint, then W tracks per side in the
// order West, South, East, North, then the L pins.
type IOCode int

// IONull is the null endpoint code.
const IONull IOCode = 0

// CodeForSide returns the I/O code of track t on the given side.
func (p Params) CodeForSide(s Side, t int) IOCode {
	p.checkTrack(t)
	return IOCode(int(s)*p.W + t + 1)
}

// CodeForPin returns the I/O code of logic-block pin `pin`.
func (p Params) CodeForPin(pin int) IOCode {
	if pin < 0 || pin >= p.L() {
		panic(fmt.Sprintf("arch: pin %d out of range", pin))
	}
	return IOCode(4*p.W + pin + 1)
}

// CondForCode maps an I/O code to the conductor that realizes it inside
// this macro. West/South boundary I/Os are the incoming neighbour wires
// (InW/InS); East/North I/Os are the macro's own wires whose far ends
// form the boundary. The null code maps to CondNone.
func (p Params) CondForCode(code IOCode) (Cond, error) {
	c := int(code)
	switch {
	case c == 0:
		return CondNone, nil
	case c < 0 || c >= p.NumIOCodes():
		return CondNone, fmt.Errorf("arch: I/O code %d out of range [0,%d)", c, p.NumIOCodes())
	case c <= p.W: // West
		return p.CondInW(c - 1), nil
	case c <= 2*p.W: // South
		return p.CondInS(c - p.W - 1), nil
	case c <= 3*p.W: // East
		return p.CondHW(c - 2*p.W - 1), nil
	case c <= 4*p.W: // North
		return p.CondVW(c - 3*p.W - 1), nil
	default: // pin
		return p.CondPin(c - 4*p.W - 1), nil
	}
}

// CodeForCond is the inverse of CondForCode.
func (p Params) CodeForCond(c Cond) IOCode {
	if c == CondNone {
		return IONull
	}
	k, i := p.CondInfo(c)
	switch k {
	case KindHW:
		return p.CodeForSide(East, i)
	case KindVW:
		return p.CodeForSide(North, i)
	case KindInW:
		return p.CodeForSide(West, i)
	case KindInS:
		return p.CodeForSide(South, i)
	default:
		return p.CodeForPin(i)
	}
}
