package world

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A per-block reference for the layer-run format (see chunk.go), which the
// differential tests and the fuzz targets hold EncodeAppend and
// DecodeChunkInto to. It reads and writes a chunk through At and Set only,
// knows nothing of how a Chunk stores its layers, finds palette indices by
// a linear search of the palette and packs them with one generic writeBits/readBits call
// per block. It is exported from this _test file for the external test
// package, which can import the terrain generators (package world's own
// tests cannot).

// OracleEncode is the reference encoder.
func OracleEncode(c *Chunk) []byte {
	// The palette: every key, in order of first appearance.
	var pal []uint16
	var seen [1 << 16]bool
	for i := 0; i < BlocksPerChunk; i++ {
		if k := oracleAt(c, i).key(); !seen[k] {
			seen[k] = true
			pal = append(pal, k)
		}
	}
	bits := bitsFor(len(pal))
	// index returns the palette index of k. It searches from the last hit
	// on, wrapping round: a block that repeats, or that follows its
	// predecessor in the palette, is found at once.
	last := 0
	index := func(k uint16) int {
		if j := slices.Index(pal[last:], k); j >= 0 {
			last += j
		} else {
			last = slices.Index(pal[:last], k)
		}
		return last
	}

	// fill[y] is the palette index of the one block layer y holds, or
	// MixedLayer.
	var fill [ChunkSizeY]int
	for y := range fill {
		first := c.At(0, y, 0)
		fill[y] = index(first.key())
		for i := 0; i < layerBlocks; i++ {
			if oracleAt(c, y*layerBlocks+i) != first {
				fill[y] = MixedLayer
			}
		}
	}

	dst := binary.LittleEndian.AppendUint32(nil, chunkMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.X)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c.Pos.Z)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pal)-1))
	for _, k := range pal {
		dst = binary.LittleEndian.AppendUint16(dst, k)
	}
	dst = append(dst, byte(bits))
	for y := 0; y < ChunkSizeY; {
		n := 1
		for y+n < ChunkSizeY && fill[y+n] == fill[y] {
			n++
		}
		dst = append(dst, byte(n-1))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(fill[y]))
		y += n
	}
	for y, f := range fill {
		if f != MixedLayer {
			continue
		}
		data := make([]byte, layerBlocks*int(bits)/8)
		for i := 0; i < layerBlocks; i++ {
			writeBits(data, uint(i)*bits, bits, uint32(index(oracleAt(c, y*layerBlocks+i).key())))
		}
		dst = append(dst, data...)
	}
	return dst
}

// OracleDecodeInto is the reference decoder.
func OracleDecodeInto(c *Chunk, buf []byte) error {
	if len(buf) < 14 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadChunkEncoding, len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != chunkMagic {
		return fmt.Errorf("%w: bad magic", ErrBadChunkEncoding)
	}
	pos := ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	palLen := 1 + int(binary.LittleEndian.Uint16(buf[12:]))
	off := 14
	if len(buf) < off+2*palLen+1 {
		return fmt.Errorf("%w: truncated palette", ErrBadChunkEncoding)
	}
	palette := make([]Block, palLen)
	for i := range palette {
		palette[i] = blockFromKey(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
	}
	bits := uint(buf[off])
	off++
	if bits == 0 || bits > 16 {
		return fmt.Errorf("%w: bad index width %d", ErrBadChunkEncoding, bits)
	}
	var fill [ChunkSizeY]int
	mixed := 0
	for y := 0; y < ChunkSizeY; {
		if len(buf) < off+3 {
			return fmt.Errorf("%w: truncated runs", ErrBadChunkEncoding)
		}
		n, idx := int(buf[off])+1, int(binary.LittleEndian.Uint16(buf[off+1:]))
		off += 3
		if y+n > ChunkSizeY {
			return fmt.Errorf("%w: run overruns the chunk", ErrBadChunkEncoding)
		}
		if idx != MixedLayer && idx >= palLen {
			return fmt.Errorf("%w: fill index %d out of range", ErrBadChunkEncoding, idx)
		}
		for ; n > 0; n-- {
			fill[y] = idx
			if idx == MixedLayer {
				mixed++
			}
			y++
		}
	}
	data := buf[off:]
	if len(data) != mixed*layerBlocks*int(bits)/8 {
		return fmt.Errorf("%w: block data length %d", ErrBadChunkEncoding, len(data))
	}
	c.Pos = pos
	var bitPos uint
	for y, f := range fill {
		for i := 0; i < layerBlocks; i++ {
			idx := f
			if f == MixedLayer {
				idx = int(readBits(data, bitPos, bits))
				bitPos += bits
				if idx >= palLen {
					return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
				}
			}
			c.Set(i%ChunkSizeX, y, i/ChunkSizeX, palette[idx])
		}
	}
	c.GenWork = 0
	return nil
}

// oracleAt is the i-th block in the format's (y, z, x) order.
func oracleAt(c *Chunk, i int) Block {
	return c.At(i%ChunkSizeX, i/layerBlocks, i/ChunkSizeX%ChunkSizeZ)
}

// writeBits writes the low `bits` bits of v at bit offset pos. Values span
// at most three bytes (bits ≤ 16), written little-endian within the byte
// stream.
func writeBits(data []byte, pos, bits uint, v uint32) {
	w := uint32(v) << (pos % 8)
	i := pos / 8
	data[i] |= byte(w)
	if bits+pos%8 > 8 {
		data[i+1] |= byte(w >> 8)
	}
	if bits+pos%8 > 16 {
		data[i+2] |= byte(w >> 16)
	}
}

// readBits reads `bits` bits at bit offset pos.
func readBits(data []byte, pos, bits uint) uint32 {
	i := pos / 8
	var v uint32 = uint32(data[i])
	if i+1 < uint(len(data)) {
		v |= uint32(data[i+1]) << 8
	}
	if i+2 < uint(len(data)) {
		v |= uint32(data[i+2]) << 16
	}
	return (v >> (pos % 8)) & ((1 << bits) - 1)
}
