package sc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// oracle is the construct engine as it was before constructs were stored
// compiled: a grid of Cells, every operation a walk over the whole grid.
// FuzzConstructOps holds Construct to it; nothing else uses it.
type oracle struct {
	w, h  int
	cells []Cell
	step  uint64
}

func newOracle(w, h int) *oracle {
	return &oracle{w: w, h: h, cells: make([]Cell, w*h)}
}

func (c *oracle) idx(x, y int) int { return y*c.w + x }

func (c *oracle) At(x, y int) Cell {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return Cell{}
	}
	return c.cells[c.idx(x, y)]
}

func (c *oracle) Set(x, y int, cell Cell) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[c.idx(x, y)] = cell
}

func (c *oracle) BlockCount() int {
	n := 0
	for i := range c.cells {
		if c.cells[i].Kind != Empty {
			n++
		}
	}
	return n
}

func (c *oracle) Clone() *oracle {
	out := &oracle{w: c.w, h: c.h, step: c.step, cells: make([]Cell, len(c.cells))}
	copy(out.cells, c.cells)
	return out
}

var neighborOffsets = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

func (c *oracle) Step() int {
	work := c.propagatePower()
	for i := range c.cells {
		cell := &c.cells[i]
		switch cell.Kind {
		case Lamp, Repeater, Inverter:
			x, y := i%c.w, i/c.w
			in := c.inputPower(x, y)
			work++
			switch cell.Kind {
			case Lamp:
				cell.On = in > 0
			case Inverter:
				cell.On = in == 0
			case Repeater:
				want := in > 0
				if want != cell.On {
					cell.Timer++
					if cell.Timer >= cell.Delay {
						cell.On = want
						cell.Timer = 0
					}
				} else {
					cell.Timer = 0
				}
			}
		}
	}
	c.step++
	return work
}

func (c *oracle) propagatePower() int {
	work := 0
	var frontier [MaxPower + 1][]int
	for i := range c.cells {
		cell := &c.cells[i]
		switch cell.Kind {
		case Wire:
			cell.Power = 0
		case Source, Repeater, Inverter:
			if cell.On {
				frontier[MaxPower] = append(frontier[MaxPower], i)
			}
		}
		work++
	}
	for p := MaxPower; p > 0; p-- {
		for _, i := range frontier[p] {
			x, y := i%c.w, i/c.w
			for _, d := range neighborOffsets {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= c.w || ny < 0 || ny >= c.h {
					continue
				}
				ni := c.idx(nx, ny)
				n := &c.cells[ni]
				work++
				if n.Kind == Wire && int(n.Power) < p-1 {
					n.Power = uint8(p - 1)
					frontier[p-1] = append(frontier[p-1], ni)
				}
			}
		}
	}
	return work
}

func (c *oracle) inputPower(x, y int) int {
	in := 0
	for _, d := range neighborOffsets {
		n := c.At(x+d[0], y+d[1])
		var p int
		switch n.Kind {
		case Wire:
			p = int(n.Power)
		case Source, Repeater, Inverter:
			if n.On {
				p = MaxPower
			}
		}
		if p > in {
			in = p
		}
	}
	return in
}

func (c *oracle) State() StateVector {
	out := make([]byte, 0, len(c.cells)*2)
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Kind == Empty {
			continue
		}
		var on byte
		if cell.On {
			on = 1
		}
		out = append(out, cell.Power, on<<7|cell.Timer&0x7f)
	}
	return out
}

func (c *oracle) SetState(s StateVector) error {
	n := 0
	for i := range c.cells {
		if c.cells[i].Kind != Empty {
			n++
		}
	}
	if len(s) != n*2 {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrStateMismatch, len(s), n*2)
	}
	j := 0
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.Kind == Empty {
			continue
		}
		cell.Power = s[j]
		cell.On = s[j+1]&0x80 != 0
		cell.Timer = s[j+1] & 0x7f
		j += 2
	}
	return nil
}

func (c *oracle) Hash() uint64 {
	h := fnv.New64a()
	h.Write(c.State())
	return h.Sum64()
}

func (c *oracle) EncodeLayout() []byte {
	out := make([]byte, 0, 8+len(c.cells)*2)
	out = binary.LittleEndian.AppendUint32(out, uint32(c.w))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.h))
	for i := range c.cells {
		cell := &c.cells[i]
		out = append(out, byte(cell.Kind), cell.Delay)
	}
	return append(out, c.State()...)
}

func oracleDecodeLayout(buf []byte) (*oracle, error) {
	if len(buf) < 8 {
		return nil, errors.New("sc: truncated layout")
	}
	w := int(binary.LittleEndian.Uint32(buf))
	h := int(binary.LittleEndian.Uint32(buf[4:]))
	if w <= 0 || h <= 0 || w*h > 1<<20 {
		return nil, fmt.Errorf("sc: bad layout size %dx%d", w, h)
	}
	if len(buf) < 8+w*h*2 {
		return nil, errors.New("sc: truncated layout cells")
	}
	c := newOracle(w, h)
	off := 8
	for i := range c.cells {
		kind := CellKind(buf[off])
		if kind > Inverter {
			return nil, fmt.Errorf("sc: unknown cell kind %d", kind)
		}
		c.cells[i] = Cell{Kind: kind, Delay: buf[off+1]}
		off += 2
	}
	if err := c.SetState(StateVector(buf[off:])); err != nil {
		return nil, err
	}
	return c, nil
}
