package world

import "slices"

// BlocksPerChunk is the number of voxels in one chunk.
const BlocksPerChunk = ChunkSizeX * ChunkSizeZ * ChunkSizeY

// Sealed reports whether c is still only the encoding LoadEncoded gave it:
// no block of it has been read or written since.
func Sealed(c *Chunk) bool { return c.sealed }

// BlockAt returns the block at an absolute position. Unloaded chunks and
// out-of-range Y read as Air.
func (w *World) BlockAt(p BlockPos) Block {
	c := w.Chunk(p.Chunk())
	if c == nil {
		return Block{}
	}
	return c.At(floorMod(p.X, ChunkSizeX), p.Y, floorMod(p.Z, ChunkSizeZ))
}

// NonAirCount returns the number of non-air blocks.
func (c *Chunk) NonAirCount() int {
	c.open()
	n := 0
	for y, h := range c.head {
		if l := c.mixedLayer(y); l != nil {
			for _, b := range l {
				if b.ID != Air {
					n++
				}
			}
		} else if h.fill.ID != Air {
			n += layerBlocks
		}
	}
	return n
}

// Clone returns a deep copy of the chunk: the copy shares no layer with
// the original (only the kept encoding, which nobody writes).
func (c *Chunk) Clone() *Chunk {
	c.open()
	out := *c
	out.head = slices.Clone(c.head)
	out.mixed = nil
	out.resizeMixed(len(c.mixed))
	for i, l := range c.mixed {
		*out.mixed[i] = *l
	}
	return &out
}

// FillLayer and SetLayer write a whole layer at a time, as generators did
// before a chunk was born encoded (terrain's AppendEncoded); the tests keep
// them to build fills and mixed layers directly.

// FillLayer makes every block of layer y b. Out-of-range layers are
// ignored. A layer that already has blocks of its own keeps them (filled
// with b): storage is released by Reset only.
func (c *Chunk) FillLayer(y int, b Block) {
	if uint(y) >= ChunkSizeY {
		return
	}
	c.open()
	if l := c.mixedLayer(y); l != nil {
		if !l.holdsOnly(b) {
			l.fillWith(b)
			c.changed()
		}
	} else if c.fillOf(y) != b {
		c.reach(y)
		c.head[y].fill = b
		c.changed()
	}
}

// SetLayer copies blocks, indexed (z, x), over layer y. Out-of-range
// layers are ignored. Blocks of a single type written over a uniform layer
// are stored as a fill, leaving the chunk as small as its content allows.
func (c *Chunk) SetLayer(y int, blocks *[ChunkSizeX * ChunkSizeZ]Block) {
	if uint(y) >= ChunkSizeY {
		return
	}
	c.open()
	in := (*layer)(blocks)
	l := c.mixedLayer(y)
	if l == nil {
		if in.holdsOnly(in[0]) {
			c.FillLayer(y, in[0])
			return
		}
		c.reach(y)
		l = c.promote(y)
	} else if *l == *in {
		return
	}
	*l = *in
	c.changed()
}
