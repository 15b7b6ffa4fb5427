package world

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Chunk is one 16×16×256 column of blocks. Blocks are stored in a flat
// array indexed by (y, z, x); the zero value of the array is all Air, so a
// freshly allocated chunk is valid empty space.
type Chunk struct {
	Pos    ChunkPos
	blocks [BlocksPerChunk]Block
	// Version counts mutations, used by the persistence layer to detect
	// dirty chunks and by tests to assert copy semantics.
	Version uint64
	// GenWork records the number of abstract work units spent generating
	// this chunk (0 for hand-built chunks); the cost model charges it
	// when a locally-generated chunk is applied on the game loop.
	GenWork int
}

// NewChunk returns an empty (all-air) chunk at pos.
func NewChunk(pos ChunkPos) *Chunk {
	return &Chunk{Pos: pos}
}

func blockIndex(x, y, z int) int {
	return (y*ChunkSizeZ+z)*ChunkSizeX + x
}

// At returns the block at chunk-local coordinates. Coordinates outside the
// chunk bounds return Air.
func (c *Chunk) At(x, y, z int) Block {
	if x < 0 || x >= ChunkSizeX || z < 0 || z >= ChunkSizeZ || y < 0 || y >= ChunkSizeY {
		return Block{}
	}
	return c.blocks[blockIndex(x, y, z)]
}

// Set writes the block at chunk-local coordinates. Out-of-bounds writes are
// ignored.
func (c *Chunk) Set(x, y, z int, b Block) {
	if x < 0 || x >= ChunkSizeX || z < 0 || z >= ChunkSizeZ || y < 0 || y >= ChunkSizeY {
		return
	}
	i := blockIndex(x, y, z)
	if c.blocks[i] != b {
		c.blocks[i] = b
		c.Version++
	}
}

// SurfaceY returns the Y coordinate of the highest solid block in the given
// column, or -1 if the column is empty.
func (c *Chunk) SurfaceY(x, z int) int {
	for y := ChunkSizeY - 1; y >= 0; y-- {
		if c.blocks[blockIndex(x, y, z)].ID.Solid() {
			return y
		}
	}
	return -1
}

// NonAirCount returns the number of non-air blocks, a cheap density measure
// used by tests and the cost model.
func (c *Chunk) NonAirCount() int {
	n := 0
	for _, b := range c.blocks {
		if !b.IsAir() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the chunk.
func (c *Chunk) Clone() *Chunk {
	out := *c
	return &out
}

// Equal reports whether two chunks hold identical block data at the same
// position (versions and generation metadata are ignored).
func (c *Chunk) Equal(o *Chunk) bool {
	return c.Pos == o.Pos && c.blocks == o.blocks
}

// --- Binary encoding -------------------------------------------------------
//
// Format (little-endian):
//
//	magic   uint32  = 0x53564f43 ("SVOC")
//	posX    int32
//	posZ    int32
//	palLen  uint16          number of palette entries
//	palette palLen × uint16 packed Block keys
//	bits    uint8           index width in bits (1..16)
//	data    ceil(BlocksPerChunk*bits/8) bytes of packed indices
//
// The palette makes typical terrain chunks (a handful of block types)
// encode in a few kilobytes instead of the raw 128 KiB.
//
// Layer alignment. Indices are packed in block order (y, z, x), the i-th
// at bit offset i*bits, least-significant bit first. One Y-layer is
// layerBlocks = 256 indices, so it occupies 256*bits bits = 8*bits 32-bit
// words for every legal width: each layer starts word-aligned at byte
// y*32*bits of data, and a layer of one block type is a bits-byte pattern
// (eight indices) repeated 32 times. The codec below relies on both facts —
// it packs and unpacks a layer at a time through whole 32-bit words and
// fills repetitive layers by copying — but they are properties of the
// format above, not additions to it: the bytes are exactly those the
// per-block packing loop (kept as the test oracle in codec_oracle_test.go)
// produces, and any stream in this format decodes, whoever wrote it.

const chunkMagic = 0x53564f43

// layerBlocks is the number of blocks in one Y-layer of a chunk.
const layerBlocks = ChunkSizeX * ChunkSizeZ

// chunkHeaderLen is the fixed part of an encoding before the palette.
const chunkHeaderLen = 14

// ErrBadChunkEncoding is returned by DecodeChunk for malformed input.
var ErrBadChunkEncoding = errors.New("world: bad chunk encoding")

// bitsFor returns the number of bits needed to index n palette entries.
func bitsFor(n int) uint {
	bits := uint(1)
	for (1 << bits) < n {
		bits++
	}
	return bits
}

// packedLen returns the byte length of the packed indices of n layers.
func packedLen(layers int, bits uint) int {
	return layers * layerBlocks / 8 * int(bits)
}

// Encode serialises the chunk to the palette format described above.
func (c *Chunk) Encode() []byte {
	return c.EncodeAppend(nil)
}

// EncodeAppend serialises the chunk to the palette format described above,
// appending to dst and returning the extended slice. dst grows at most
// once, to the encoding's final size, so EncodeAppend(nil) costs a single
// allocation and a reused buffer (`buf = c.EncodeAppend(buf[:0])`) none —
// EncodeAppend is the hot path of chunk persistence, terrain generation
// and the wire protocol.
//
// A first pass over the layers discovers the palette (first-appearance
// order, for determinism) and notes which layers hold a single block type;
// a second packs the indices. Palette lookups use a linear scan with a
// last-hit memo instead of a map: real chunks have tiny palettes and long
// runs of identical blocks, which makes this several times faster than
// hashing. Uniform layers — all but a dozen or so of a terrain chunk's
// 256 — are never walked block by block: one array comparison classifies
// them and copies fill them.
func (c *Chunk) EncodeAppend(dst []byte) []byte {
	var palArr [64]uint16 // keeps terrain-sized palettes off the heap
	lastKey, lastIdx := c.blocks[0].key(), 0
	pal := append(palArr[:0], lastKey)
	// uniform[y] is the palette index filling layer y, or -1 if the layer
	// mixes block types.
	var uniform [ChunkSizeY]int32
	for y := range uniform {
		layer := c.blocks[y*layerBlocks:][:layerBlocks]
		// A layer equal to itself shifted by one block is one block
		// repeated; comparing arrays compiles to a single memequal.
		isUniform := *(*[layerBlocks - 1]Block)(layer) == *(*[layerBlocks - 1]Block)(layer[1:])
		if isUniform {
			layer = layer[:1]
		}
		for _, b := range layer {
			if k := b.key(); k != lastKey {
				lastKey, lastIdx = k, slices.Index(pal, k)
				if lastIdx < 0 {
					lastIdx = len(pal)
					pal = append(pal, k)
				}
			}
		}
		uniform[y] = -1
		if isUniform {
			uniform[y] = int32(lastIdx)
		}
	}

	// The size is known now: grow dst once and fill it in place.
	bits := bitsFor(len(pal))
	dataOff := chunkHeaderLen + 2*len(pal) + 1
	base := len(dst)
	dst = slices.Grow(dst, dataOff+packedLen(ChunkSizeY, bits))[:base+dataOff+packedLen(ChunkSizeY, bits)]
	hdr, data := dst[base:base+dataOff], dst[base+dataOff:]
	binary.LittleEndian.PutUint32(hdr, chunkMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(c.Pos.X)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(int32(c.Pos.Z)))
	binary.LittleEndian.PutUint16(hdr[12:], uint16(len(pal)))
	for i, k := range pal {
		binary.LittleEndian.PutUint16(hdr[chunkHeaderLen+2*i:], k)
	}
	hdr[dataOff-1] = byte(bits)

	layerLen := packedLen(1, bits)
	for y, idx := range uniform {
		out := data[y*layerLen:][:layerLen]
		layer := c.blocks[y*layerBlocks:][:layerBlocks]
		switch {
		case idx < 0:
			packIndices(out, layer, bits, pal)
		case y > 0 && uniform[y-1] == idx:
			copy(out, data[(y-1)*layerLen:]) // runs of one layer are the norm
		default:
			// 32 indices are `bits` whole words; the rest of the layer
			// repeats them.
			n := 4 * int(bits)
			packIndices(out[:n], layer[:32], bits, pal)
			for ; n < layerLen; n *= 2 {
				copy(out[n:], out[:n])
			}
		}
	}
	return dst
}

// packIndices packs the palette index of every block in blocks, bits wide
// each, into out, which they must fill to a whole number of 32-bit words
// (any multiple of 32 blocks does). Every block must be in pal.
func packIndices(out []byte, blocks []Block, bits uint, pal []uint16) {
	lastKey := blocks[0].key()
	lastIdx := slices.Index(pal, lastKey)
	var acc uint64 // pending bits, the oldest lowest
	var n uint     // how many of them
	for _, b := range blocks {
		if k := b.key(); k != lastKey {
			lastKey, lastIdx = k, slices.Index(pal, k)
		}
		acc |= uint64(lastIdx) << n
		n += bits
		if n >= 32 {
			binary.LittleEndian.PutUint32(out, uint32(acc))
			out = out[4:]
			acc >>= 32
			n -= 32
		}
	}
}

// DecodeChunk parses a chunk previously produced by Encode.
func DecodeChunk(buf []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := DecodeChunkInto(c, buf); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeChunkInto parses a chunk previously produced by Encode into c,
// overwriting every block plus Pos, Version and GenWork — the chunk needs
// no prior reset, so pooled (recycled) chunks decode identically to fresh
// ones. On error the chunk's contents are unspecified. Small palettes
// (the terrain norm) decode with zero allocations.
//
// It accepts any stream in the format, not only EncodeAppend's: index
// widths wider than the palette needs, palettes with repeated entries and
// arbitrary index patterns all decode, and every index is range-checked.
func DecodeChunkInto(c *Chunk, buf []byte) error {
	if len(buf) < chunkHeaderLen+1 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadChunkEncoding, len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != chunkMagic {
		return fmt.Errorf("%w: bad magic", ErrBadChunkEncoding)
	}
	pos := ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	palLen := int(binary.LittleEndian.Uint16(buf[12:]))
	if palLen == 0 {
		return fmt.Errorf("%w: empty palette", ErrBadChunkEncoding)
	}
	off := chunkHeaderLen
	if len(buf) < off+2*palLen+1 {
		return fmt.Errorf("%w: truncated palette", ErrBadChunkEncoding)
	}
	var palArr [64]Block
	var palette []Block
	if palLen <= len(palArr) {
		palette = palArr[:palLen]
	} else {
		palette = make([]Block, palLen)
	}
	for i := range palette {
		palette[i] = blockFromKey(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
	}
	bits := uint(buf[off])
	off++
	if bits == 0 || bits > 16 {
		return fmt.Errorf("%w: bad index width %d", ErrBadChunkEncoding, bits)
	}
	if len(buf) < off+packedLen(ChunkSizeY, bits) {
		return fmt.Errorf("%w: truncated block data", ErrBadChunkEncoding)
	}
	data := buf[off:]
	c.Pos = pos
	c.Version = 0
	c.GenWork = 0
	layerLen := packedLen(1, bits)
	for y := 0; y < ChunkSizeY; y++ {
		in := data[y*layerLen:][:layerLen]
		layer := c.blocks[y*layerBlocks:][:layerBlocks]
		// Eight indices are `bits` whole bytes, so a packed layer equal to
		// itself shifted by that many bytes repeats its first eight blocks
		// throughout (a uniform layer is the common case): unpack — and
		// range-check — those, and copy the rest.
		n := layerBlocks
		if bytes.Equal(in[:layerLen-int(bits)], in[bits:]) {
			n = 8
		}
		if err := unpackIndices(layer[:n], in, bits, palette); err != nil {
			return err
		}
		for ; n < layerBlocks; n *= 2 {
			copy(layer[n:], layer[:n])
		}
	}
	return nil
}

// unpackIndices reads len(blocks) indices, bits wide each, from the start
// of in, 32 bits at a time, and stores the palette entry of each into
// blocks. in must hold the indices rounded up to a whole 32-bit word.
func unpackIndices(blocks []Block, in []byte, bits uint, palette []Block) error {
	mask := uint64(1)<<bits - 1
	var acc uint64 // unread bits, the next index lowest
	var n uint     // how many of them
	for i := range blocks {
		if n < bits {
			acc |= uint64(binary.LittleEndian.Uint32(in)) << n
			in = in[4:]
			n += 32
		}
		idx := acc & mask
		acc >>= bits
		n -= bits
		if idx >= uint64(len(palette)) {
			return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
		}
		blocks[i] = palette[idx]
	}
	return nil
}
