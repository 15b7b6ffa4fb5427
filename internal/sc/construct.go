// Package sc implements simulated constructs (SCs): collections of stateful
// blocks through which players program the MVE's terrain (paper §II-A,
// component 6). A construct is a small grid of circuit cells — power
// sources, wires with decaying power levels, lamps, repeaters, and
// inverters — with a deterministic synchronous step function.
//
// The engine is shared verbatim between the game server (local simulation)
// and the serverless simulation function (speculative execution): both call
// Step on identical state, which is what makes Servo's remote speculation
// indistinguishable from local execution (paper §III-C).
package sc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// CellKind enumerates circuit cell types. Empty is the zero value.
type CellKind uint8

// Cell kinds. They mirror the stateful block types in internal/world.
const (
	Empty    CellKind = iota
	Wire              // carries power, decaying 15 → 0 with distance
	Source            // emits MaxPower while on
	Lamp              // lit while receiving power
	Repeater          // re-emits full power a configurable delay after its input rises
	Inverter          // emits power iff its input was unpowered last step
)

// MaxPower is the highest power level; wire power decays by one per cell.
const MaxPower = 15

// MaxDelay is the longest repeater delay: a repeater's timer stays below
// its delay, and the state vector holds a timer in seven bits.
const MaxDelay = 128

// String implements fmt.Stringer.
func (k CellKind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Wire:
		return "wire"
	case Source:
		return "source"
	case Lamp:
		return "lamp"
	case Repeater:
		return "repeater"
	case Inverter:
		return "inverter"
	}
	return fmt.Sprintf("cellkind(%d)", uint8(k))
}

// Cell is one grid cell: immutable wiring (Kind, Delay) plus mutable
// simulation state (Power, On, Timer). An empty cell has no state.
type Cell struct {
	Kind  CellKind
	Delay uint8 // Repeater: ticks of sustained input before the output flips (≤ MaxDelay)

	// Mutable state.
	Power uint8 // Wire: current power level
	On    bool  // Source/Lamp/Repeater/Inverter: output or lit state
	Timer uint8 // Repeater: consecutive ticks the input has disagreed with the output (7 bits)
}

// Construct is a rectangular W×H grid of cells simulated in lockstep with
// the game (one Step per game tick when simulated locally).
//
// It is kept compiled for the speculative path (paper §III-C), whose
// per-tick work is applying a precomputed state: the mutable state of its
// blocks (non-empty cells) is stored packed, in exactly the StateVector
// encoding, so the block count is its length and Hash is a pass over one
// byte slice. SetState does not copy: the construct reads the vector it
// was given in place and copies it into storage of its own only before
// its next write (Step, Set). The per-cell index into the state changes
// only when a cell turns empty or non-empty.
type Construct struct {
	w, h int
	// wiring holds Kind, Delay for every cell in cell order: the cell
	// section of EncodeLayout.
	wiring []byte
	// block maps a cell to its block's index in state (two bytes a
	// block), or -1 for an empty cell.
	block []int32
	// state is the StateVector of the blocks, in cell order. While
	// shared is set it is the caller's vector from SetState, which the
	// construct never writes: own copies it into spare, the storage the
	// construct held before, ahead of the next write.
	state  []byte
	spare  []byte
	shared bool
	step   uint64
}

// State byte layout: a block's first byte is its power, its second its
// on flag and timer.
const (
	onBit     = 0x80
	timerMask = 0x7f
)

// New returns an empty construct with the given grid dimensions.
func New(w, h int) *Construct {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("sc: invalid construct size %dx%d", w, h))
	}
	c := &Construct{w: w, h: h, wiring: make([]byte, 2*w*h), block: make([]int32, w*h), state: []byte{}}
	for i := range c.block {
		c.block[i] = -1
	}
	return c
}

// Size returns the grid dimensions.
func (c *Construct) Size() (w, h int) { return c.w, c.h }

func (c *Construct) idx(x, y int) int { return y*c.w + x }

func (c *Construct) kind(i int) CellKind { return CellKind(c.wiring[2*i]) }

// At returns the cell at (x, y); out-of-range coordinates return an Empty
// cell.
func (c *Construct) At(x, y int) Cell {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return Cell{}
	}
	i := c.idx(x, y)
	cell := Cell{Kind: c.kind(i), Delay: c.wiring[2*i+1]}
	if b := c.block[i]; b >= 0 {
		s := c.state[2*b:]
		cell.Power, cell.On, cell.Timer = s[0], s[1]&onBit != 0, s[1]&timerMask
	}
	return cell
}

// Set places a cell at (x, y). Out-of-range placements are ignored; a
// repeater delay above MaxDelay panics.
func (c *Construct) Set(x, y int, cell Cell) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	if cell.Kind == Repeater && cell.Delay > MaxDelay {
		panic(fmt.Sprintf("sc: repeater delay %d above MaxDelay", cell.Delay))
	}
	c.own()
	i := c.idx(x, y)
	b := c.block[i]
	switch {
	case b < 0 && cell.Kind != Empty:
		b = c.insertBlock(i)
	case b >= 0 && cell.Kind == Empty:
		c.removeBlock(i)
		b = -1
	}
	c.wiring[2*i], c.wiring[2*i+1] = byte(cell.Kind), cell.Delay
	if b >= 0 {
		c.state[2*b], c.state[2*b+1] = cell.Power, packOn(cell.On, cell.Timer)
	}
}

func packOn(on bool, timer uint8) byte {
	if on {
		return onBit | timer&timerMask
	}
	return timer & timerMask
}

// insertBlock makes empty cell i a block and returns its index. The cells
// are scanned only as far as the blocks around i, so a grid filled in cell
// order (as the builders fill theirs) costs a constant per cell.
func (c *Construct) insertBlock(i int) int32 {
	var b int32
	for j := i - 1; j >= 0; j-- {
		if c.block[j] >= 0 {
			b = c.block[j] + 1
			break
		}
	}
	c.shiftBlocks(i, int32(len(c.state)/2)-b, 1)
	c.block[i] = b
	c.state = slices.Insert(c.state, 2*int(b), 0, 0)
	return b
}

// removeBlock makes block cell i empty.
func (c *Construct) removeBlock(i int) {
	b := c.block[i]
	c.block[i] = -1
	c.shiftBlocks(i, int32(len(c.state)/2)-b-1, -1)
	c.state = slices.Delete(c.state, 2*int(b), 2*int(b)+2)
}

// shiftBlocks moves the indices of the n blocks after cell i by d.
func (c *Construct) shiftBlocks(i int, n, d int32) {
	for j := i + 1; n > 0; j++ {
		if c.block[j] >= 0 {
			c.block[j] += d
			n--
		}
	}
}

// BlockCount returns the number of non-empty cells: the construct's size in
// blocks, the metric the paper uses for §IV-G (252- and 484-block
// constructs).
func (c *Construct) BlockCount() int { return len(c.state) / 2 }

// Clone returns a deep copy sharing no state with the receiver.
func (c *Construct) Clone() *Construct {
	return &Construct{
		w: c.w, h: c.h, step: c.step,
		wiring: slices.Clone(c.wiring),
		block:  slices.Clone(c.block),
		state:  slices.Clone(c.state),
	}
}

// Step advances the construct by one simulation step and returns the number
// of work units performed (cells visited during power propagation plus
// component updates). The update is synchronous and two-phase:
//
//  1. The power field is recomputed: every emitting component (Source on,
//     Repeater on, Inverter on) injects MaxPower into adjacent wires, and
//     power spreads through wire cells decaying by one per cell.
//  2. Components sample their inputs (the max power in the four adjacent
//     cells) and update: lamps light, repeater timers advance, inverters
//     invert. New outputs become visible to the power field at the next
//     step, so feedback loops oscillate rather than racing.
func (c *Construct) Step() int {
	c.own()
	work := c.propagatePower()
	// Phase 2: component updates against the settled power field, in cell
	// order (a component reads the outputs its predecessors just wrote).
	for i, b := range c.block {
		if b < 0 {
			continue
		}
		k := c.kind(i)
		if k != Lamp && k != Repeater && k != Inverter {
			continue
		}
		in := c.inputPower(i)
		work++
		s := &c.state[2*b+1]
		switch k {
		case Lamp:
			*s = packOn(in > 0, *s)
		case Inverter:
			*s = packOn(in == 0, *s)
		case Repeater:
			want, on := in > 0, *s&onBit != 0
			timer := int(*s & timerMask)
			if want != on {
				timer++
				if timer >= int(c.wiring[2*i+1]) {
					on, timer = want, 0
				}
			} else {
				timer = 0
			}
			*s = packOn(on, uint8(timer))
		}
	}
	c.step++
	return work
}

// propagatePower recomputes wire power levels from the current component
// outputs and returns the number of cells visited: every cell of the grid
// once, then every in-grid neighbour of each emitter and powered wire.
//
// It is a breadth-first search from the emitters. All of them start at
// MaxPower and each wire hop loses one level, so the queue holds
// non-increasing levels and a wire is queued once, at its final level.
func (c *Construct) propagatePower() int {
	work := len(c.block)
	// The queue holds cells; each block enters it at most once, so 2 KiB
	// of stack covers the paper's constructs (≤ 484 blocks) without
	// allocating.
	var buf [512]int32
	queue := buf[:0]
	for i, b := range c.block {
		if b < 0 {
			continue
		}
		switch c.kind(i) {
		case Wire:
			c.state[2*b] = 0
		case Source, Repeater, Inverter:
			if c.state[2*b+1]&onBit != 0 {
				queue = append(queue, int32(i))
			}
		}
	}
	for q := 0; q < len(queue); q++ {
		i := int(queue[q])
		p := MaxPower
		if c.kind(i) == Wire {
			p = int(c.state[2*c.block[i]])
		}
		x, y := i%c.w, i/c.w
		if x+1 < c.w {
			work++
			queue = c.raise(queue, i+1, p-1)
		}
		if x > 0 {
			work++
			queue = c.raise(queue, i-1, p-1)
		}
		if y+1 < c.h {
			work++
			queue = c.raise(queue, i+c.w, p-1)
		}
		if y > 0 {
			work++
			queue = c.raise(queue, i-c.w, p-1)
		}
	}
	return work
}

// raise lifts wire cell i to power level p if that is higher than it has,
// queueing it to spread the new level.
func (c *Construct) raise(queue []int32, i, p int) []int32 {
	if b := c.block[i]; b >= 0 && c.kind(i) == Wire && int(c.state[2*b]) < p {
		c.state[2*b] = uint8(p)
		queue = append(queue, int32(i))
	}
	return queue
}

// inputPower returns the strongest power signal adjacent to cell i: wire
// power, or MaxPower next to an emitting component.
func (c *Construct) inputPower(i int) int {
	x, y := i%c.w, i/c.w
	in := 0
	if x+1 < c.w {
		in = max(in, c.emits(i+1))
	}
	if x > 0 {
		in = max(in, c.emits(i-1))
	}
	if y+1 < c.h {
		in = max(in, c.emits(i+c.w))
	}
	if y > 0 {
		in = max(in, c.emits(i-c.w))
	}
	return in
}

// emits returns the power cell i presents to its neighbours.
func (c *Construct) emits(i int) int {
	b := c.block[i]
	if b < 0 {
		return 0
	}
	switch c.kind(i) {
	case Wire:
		return int(c.state[2*b])
	case Source, Repeater, Inverter:
		if c.state[2*b+1]&onBit != 0 {
			return MaxPower
		}
	}
	return 0
}

// --- State snapshots --------------------------------------------------------

// StateVector is a canonical encoding of a construct's mutable state
// (power levels, on/off flags, timers) in cell order. Two constructs with
// identical wiring and equal StateVectors behave identically forever —
// Step is a pure function of the state vector.
type StateVector []byte

// ErrStateMismatch is returned by SetState when the vector does not match
// the construct's layout.
var ErrStateMismatch = errors.New("sc: state vector does not match construct layout")

// State snapshots the construct's mutable state.
func (c *Construct) State() StateVector { return slices.Clone(c.state) }

// SetState restores a snapshot previously produced by State on a construct
// with identical wiring. The construct references s rather than copying
// it, and copies it only before its next Step or Set, so s must not change
// while the construct may still read it: hand it a vector nobody writes,
// such as a decoded reply's.
func (c *Construct) SetState(s StateVector) error {
	if len(s) != len(c.state) {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrStateMismatch, len(s), len(c.state))
	}
	if !c.shared {
		c.spare = c.state
	}
	c.state, c.shared = s, true
	return nil
}

// own gives the construct a state it may write: a shared vector is copied
// into the storage the construct held before SetState.
func (c *Construct) own() {
	if c.shared {
		c.state = append(c.spare[:0], c.state...)
		c.spare, c.shared = nil, false
	}
}

// FNV-1a, 64-bit (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a 64-bit FNV-1a digest of the construct's mutable state,
// used by the loop detector (paper §III-C1) to recognise repeated states.
func (c *Construct) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, b := range c.state {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// --- Layout encoding ---------------------------------------------------------

// EncodeLayout serialises the construct's wiring and current state so the
// construct can be shipped to a serverless function (paper §III-C: "passes
// the simulated construct's current state").
func (c *Construct) EncodeLayout() []byte {
	out, _ := c.AppendLayout(nil, nil)
	return out
}

// AppendLayout appends EncodeLayout's encoding of the construct to dst,
// with state s in place of its current state (nil keeps the current
// state). The construct is not modified; s must fit its wiring.
func (c *Construct) AppendLayout(dst []byte, s StateVector) ([]byte, error) {
	if s == nil {
		s = c.state
	}
	if len(s) != len(c.state) {
		return dst, fmt.Errorf("%w: have %d bytes, want %d", ErrStateMismatch, len(s), len(c.state))
	}
	dst = slices.Grow(dst, 8+len(c.wiring)+len(s))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.w))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.h))
	dst = append(dst, c.wiring...)
	return append(dst, s...), nil
}

// maxLayoutCells bounds the grid DecodeLayout accepts.
const maxLayoutCells = 1 << 20

// DecodeLayout reconstructs a construct from EncodeLayout output.
func DecodeLayout(buf []byte) (*Construct, error) {
	c := new(Construct)
	if err := DecodeLayoutInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeLayoutInto is DecodeLayout into an existing construct, reusing
// its storage: c becomes the decoded construct, with a step count of 0,
// and shares no bytes with buf. On error c is unchanged.
func DecodeLayoutInto(c *Construct, buf []byte) error {
	if len(buf) < 8 {
		return errors.New("sc: truncated layout")
	}
	w := int(binary.LittleEndian.Uint32(buf))
	h := int(binary.LittleEndian.Uint32(buf[4:]))
	// w*h can overflow: bound it by division.
	if w <= 0 || h <= 0 || w > maxLayoutCells/h {
		return fmt.Errorf("sc: bad layout size %dx%d", w, h)
	}
	if len(buf) < 8+w*h*2 {
		return errors.New("sc: truncated layout cells")
	}
	wiring := buf[8 : 8+w*h*2]
	n := 0
	for i := 0; i < len(wiring); i += 2 {
		kind, delay := CellKind(wiring[i]), wiring[i+1]
		if kind > Inverter {
			return fmt.Errorf("sc: unknown cell kind %d", kind)
		}
		if kind == Repeater && delay > MaxDelay {
			return fmt.Errorf("sc: repeater delay %d above MaxDelay", delay)
		}
		if kind != Empty {
			n++
		}
	}
	state := buf[8+len(wiring):]
	if len(state) != 2*n {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrStateMismatch, len(state), 2*n)
	}
	c.w, c.h, c.step = w, h, 0
	c.wiring = append(c.wiring[:0], wiring...)
	if cap(c.block) < w*h {
		c.block = make([]int32, w*h)
	}
	c.block = c.block[:w*h]
	b := int32(0)
	for i := range c.block {
		c.block[i] = -1
		if CellKind(wiring[2*i]) != Empty {
			c.block[i] = b
			b++
		}
	}
	if c.shared {
		c.state, c.spare, c.shared = c.spare, nil, false
	}
	c.state = append(c.state[:0], state...)
	return nil
}
