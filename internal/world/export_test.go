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
