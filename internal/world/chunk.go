package world

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Chunk is one 16×16×256 column of blocks, stored a Y-layer at a time: a
// layer holding a single block type is that Block (its head's fill); a
// layer that mixes types owns a 256-block array, indexed (z, x). Terrain is
// almost all uniform layers — stone below the surface band, air above it —
// and the head stops at the highest layer ever written other than Air, so
// a resident default-world chunk is a few KiB and a flat-world chunk is
// this struct and six layer heads. The zero value is valid empty space
// (every layer a fill of Air).
//
// A Chunk must not be copied by value: the copy would share the head and
// the mixed layers. Use Clone.
type Chunk struct {
	Pos ChunkPos
	// head[y] describes layer y; every layer from len(head) up is a fill of
	// Block{} (Air, no data). Only a write of another block lengthens it
	// (reach), and Reset keeps its storage for the next occupant.
	head []layerHead
	// mixed is the storage of the non-uniform layers, in the order they
	// were promoted. Reset keeps the layers past its length for reuse:
	// within mixed[:cap] the allocated layers form a prefix.
	mixed []*layer
	// Version counts mutations: any change of content bumps it, and only
	// a decode or a trip through the pool zeroes it.
	Version uint64
	// GenWork records the number of abstract work units spent generating
	// this chunk (0 for hand-built chunks); the cost model charges it
	// when a locally-generated chunk is applied on the game loop.
	GenWork int
	// enc is the encoding of the current content, kept until the content
	// changes (see Encoded); nil when none is kept. It is immutable and
	// may be shared with storage, the generation dedup cache and clones.
	enc []byte
}

// layerHead is how one Y-layer is stored.
type layerHead struct {
	// fill is the block filling the layer while slot is 0.
	fill Block
	// slot is 0 for a uniform layer, else 1 + the index in mixed of the
	// layer's own blocks. A mixed layer may come to hold one block type
	// through Set; it is still read as what it holds (Equal and the codec
	// are defined over content, not representation).
	slot uint16
}

// layerBlocks is the number of blocks in one Y-layer of a chunk.
const layerBlocks = ChunkSizeX * ChunkSizeZ

// layer is the blocks of one Y-layer, indexed (z, x).
type layer [layerBlocks]Block

// holdsOnly reports whether every block of the layer is b.
func (l *layer) holdsOnly(b Block) bool {
	for _, have := range l {
		if have != b {
			return false
		}
	}
	return true
}

// fillWith makes every block of the layer b.
func (l *layer) fillWith(b Block) {
	for i := range l {
		l[i] = b
	}
}

// NewChunk returns an empty (all-air) chunk at pos.
func NewChunk(pos ChunkPos) *Chunk {
	return &Chunk{Pos: pos}
}

// Reset makes c the empty (all-air) chunk at pos with zero Version and
// GenWork and no kept encoding. The storage of its head and mixed layers is
// kept for the next occupant.
func (c *Chunk) Reset(pos ChunkPos) {
	*c = Chunk{Pos: pos, head: c.head[:0], mixed: c.mixed[:0]}
}

// mixedLayer returns the blocks of layer y, or nil if the layer is uniform
// (fillOf(y)).
func (c *Chunk) mixedLayer(y int) *layer {
	if y < len(c.head) {
		if s := c.head[y].slot; s != 0 {
			return c.mixed[s-1]
		}
	}
	return nil
}

// fillOf returns the block filling layer y while it is uniform.
func (c *Chunk) fillOf(y int) Block {
	if y < len(c.head) {
		return c.head[y].fill
	}
	return Block{}
}

// reach lengthens the head to hold layer y; the heads it adds are fills of
// Block{}, which those layers were. It allocates only past the kept capacity,
// and then once, by hand rather than by append(make) so that the race
// detector's build allocates no more.
func (c *Chunk) reach(y int) {
	n := len(c.head)
	if y < n {
		return
	}
	if y >= cap(c.head) {
		grown := make([]layerHead, n, min(max(y+1, 2*cap(c.head)), ChunkSizeY))
		copy(grown, c.head)
		c.head = grown
	}
	c.head = c.head[:y+1]
	clear(c.head[n:])
}

// promote gives the uniform layer y, which the head reaches, storage of its
// own, contents unspecified, reusing a kept layer when there is one. Only
// that one layer is allocated; the chunk's other layers are never moved.
func (c *Chunk) promote(y int) *layer {
	n := len(c.mixed)
	if n < cap(c.mixed) {
		c.mixed = c.mixed[:n+1] // not append: mixed[n] may be a kept layer
	} else {
		c.mixed = append(c.mixed, nil)
	}
	if c.mixed[n] == nil {
		c.mixed[n] = new(layer)
	}
	c.head[y].slot = uint16(n + 1)
	return c.mixed[n]
}

// resizeMixed makes mixed hold n layers of unspecified contents, reusing
// kept storage and allocating whatever is missing as one slab.
func (c *Chunk) resizeMixed(n int) {
	if n > cap(c.mixed) {
		grown := make([]*layer, n)
		copy(grown, c.mixed[:cap(c.mixed)])
		c.mixed = grown
	}
	c.mixed = c.mixed[:n]
	have := 0
	for have < n && c.mixed[have] != nil {
		have++
	}
	if have < n {
		slab := make([]layer, n-have)
		for i := range slab {
			c.mixed[have+i] = &slab[i]
		}
	}
}

func inChunk(x, y, z int) bool {
	return uint(x) < ChunkSizeX && uint(z) < ChunkSizeZ && uint(y) < ChunkSizeY
}

// At returns the block at chunk-local coordinates. Coordinates outside the
// chunk bounds return Air.
func (c *Chunk) At(x, y, z int) Block {
	if !inChunk(x, y, z) {
		return Block{}
	}
	if l := c.mixedLayer(y); l != nil {
		return l[z*ChunkSizeX+x]
	}
	return c.fillOf(y)
}

// Set writes the block at chunk-local coordinates. Out-of-bounds writes are
// ignored. The first write that makes a uniform layer mixed allocates that
// layer's blocks.
func (c *Chunk) Set(x, y, z int, b Block) {
	if !inChunk(x, y, z) {
		return
	}
	l := c.mixedLayer(y)
	if l == nil {
		fill := c.fillOf(y)
		if fill == b {
			return
		}
		c.reach(y)
		l = c.promote(y)
		l.fillWith(fill)
	}
	if i := z*ChunkSizeX + x; l[i] != b {
		l[i] = b
		c.changed()
	}
}

// FillLayer makes every block of layer y b. Out-of-range layers are
// ignored. A layer that already has blocks of its own keeps them (filled
// with b): storage is released by Reset only.
func (c *Chunk) FillLayer(y int, b Block) {
	if uint(y) >= ChunkSizeY {
		return
	}
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
// are stored as a fill, so a generator can emit every layer of its surface
// band through SetLayer and leave the chunk as small as its content allows.
func (c *Chunk) SetLayer(y int, blocks *[ChunkSizeX * ChunkSizeZ]Block) {
	if uint(y) >= ChunkSizeY {
		return
	}
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

// changed records a change of content: Version moves on and the kept
// encoding, which described the old content, is dropped.
func (c *Chunk) changed() {
	c.Version++
	c.enc = nil
}

// SurfaceY returns the Y coordinate of the highest solid block in the given
// column, or -1 if the column is empty.
func (c *Chunk) SurfaceY(x, z int) int {
	for y := len(c.head) - 1; y >= 0; y-- {
		b := c.head[y].fill
		if l := c.mixedLayer(y); l != nil {
			b = l[z*ChunkSizeX+x]
		}
		if b.ID.Solid() {
			return y
		}
	}
	return -1
}

// NonAirCount returns the number of non-air blocks, a cheap density measure
// used by tests and the cost model.
func (c *Chunk) NonAirCount() int {
	n := 0
	for y, h := range c.head {
		if l := c.mixedLayer(y); l != nil {
			for _, b := range l {
				if !b.IsAir() {
					n++
				}
			}
		} else if !h.fill.IsAir() {
			n += layerBlocks
		}
	}
	return n
}

// Clone returns a deep copy of the chunk: the copy shares no layer with
// the original (only the kept encoding, which nobody writes).
func (c *Chunk) Clone() *Chunk {
	out := *c
	out.head = slices.Clone(c.head)
	out.mixed = nil
	out.resizeMixed(len(c.mixed))
	for i, l := range c.mixed {
		*out.mixed[i] = *l
	}
	return &out
}

// Equal reports whether two chunks hold identical block data at the same
// position (versions and generation metadata are ignored, and so is how
// each chunk happens to store a layer).
func (c *Chunk) Equal(o *Chunk) bool {
	if c.Pos != o.Pos {
		return false
	}
	for y := range max(len(c.head), len(o.head)) {
		cl, ol := c.mixedLayer(y), o.mixedLayer(y)
		var same bool
		switch {
		case cl != nil && ol != nil:
			same = *cl == *ol
		case cl != nil:
			same = cl.holdsOnly(o.fillOf(y))
		case ol != nil:
			same = ol.holdsOnly(c.fillOf(y))
		default:
			same = c.fillOf(y) == o.fillOf(y)
		}
		if !same {
			return false
		}
	}
	return true
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

// Encode serialises the chunk to the palette format described above into
// a slice the caller owns.
func (c *Chunk) Encode() []byte {
	return c.EncodeAppend(nil)
}

// Encoded returns the encoding of the chunk's current content: the bytes
// KeepEncoded attached, or else Encode's, which are then kept. Either way
// the slice is shared — with the chunk and with whoever else was handed
// it (storage keeps what it is given) — and must not be mutated. Any
// change of content drops it, so an unchanged chunk is encoded at most
// once however often it is stored.
func (c *Chunk) Encoded() []byte {
	if c.enc == nil {
		c.enc = c.Encode()
	}
	return c.enc
}

// KeepEncoded attaches buf as the chunk's encoding, for Encoded to return
// until the content changes: the caller vouches that buf is what Encode
// would produce for the chunk now (typically the bytes it was just decoded
// from) and that nobody mutates it afterwards. KeepEncoded(nil) drops the
// kept bytes, releasing them to the GC.
func (c *Chunk) KeepEncoded(buf []byte) { c.enc = buf }

// EncodeAppend serialises the chunk to the palette format described above,
// appending to dst and returning the extended slice. dst grows at most
// once, to the encoding's final size, so EncodeAppend(nil) costs a single
// allocation and a reused buffer (`buf = c.EncodeAppend(buf[:0])`) none —
// EncodeAppend is the hot path of chunk persistence, terrain generation
// and the wire protocol.
//
// A first pass over the layers discovers the palette (first-appearance
// order, for determinism) — one lookup for a uniform layer, which is all
// but a dozen or so of a terrain chunk's 256; a second packs the indices,
// walking only the mixed layers block by block and filling the rest by
// copying. Both passes look a block's palette index up only when it differs
// from the block before (a last-hit memo: real chunks have long runs of
// identical blocks), and then by its ID: a 256-entry table, kept on the
// stack, maps each BlockID to the palette index of its Data-0 block, which
// is every block terrain generates. Only a block with Data ≠ 0 (circuit
// state) falls back to a linear scan of the palette — real palettes are
// tiny, so the scan still beats hashing.
func (c *Chunk) EncodeAppend(dst []byte) []byte {
	var palArr [64]uint16 // keeps terrain-sized palettes off the heap
	var byID idTable      // the Data-0 entries of pal
	lastKey, lastIdx := c.At(0, 0, 0).key(), 0
	pal := append(palArr[:0], lastKey)
	byID.add(lastKey, 0)
	// uniform[y] is the palette index filling layer y, or -1 if the layer
	// has blocks of its own.
	var uniform [ChunkSizeY]int32
	for y := range uniform {
		l := c.mixedLayer(y)
		blocks := []Block{c.fillOf(y)}
		if l != nil {
			blocks = l[:]
		}
		for _, b := range blocks {
			if k := b.key(); k != lastKey {
				lastKey, lastIdx = k, paletteIndex(k, pal, &byID)
				if lastIdx < 0 {
					lastIdx = len(pal)
					pal = append(pal, k)
					byID.add(k, lastIdx)
				}
			}
		}
		uniform[y] = int32(lastIdx)
		if l != nil {
			uniform[y] = -1
		}
	}

	// The size is known now: grow dst once and fill it in place. (By hand:
	// slices.Grow costs a second allocation under the race detector, and
	// the handler's one-allocation contract is tested there too.)
	bits := bitsFor(len(pal))
	dataOff := chunkHeaderLen + 2*len(pal) + 1
	base, need := len(dst), dataOff+packedLen(ChunkSizeY, bits)
	if cap(dst)-base < need {
		dst = append(make([]byte, 0, base+need), dst...)
	}
	dst = dst[:base+need]
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
		switch {
		case idx < 0:
			packIndices(out, c.mixedLayer(y)[:], bits, pal, &byID)
		case y > 0 && uniform[y-1] == idx:
			copy(out, data[(y-1)*layerLen:]) // runs of one layer are the norm
		default:
			// 32 indices are `bits` whole words; the rest of the layer
			// repeats them.
			var run [32]Block
			for i := range run {
				run[i] = c.fillOf(y)
			}
			n := 4 * int(bits)
			packIndices(out[:n], run[:], bits, pal, &byID)
			for ; n < layerLen; n *= 2 {
				copy(out[n:], out[:n])
			}
		}
	}
	return dst
}

// idTable maps a BlockID to 1 + the palette index of its Data-0 block,
// or 0 while that block is not in the palette.
type idTable [256]int32

// add records that key k is palette entry i, if k is a Data-0 key.
func (t *idTable) add(k uint16, i int) {
	if k&0xff == 0 {
		t[k>>8] = int32(i + 1)
	}
}

// paletteIndex returns the index of key k in pal, or -1 if it is not
// there: from byID for a Data-0 key, else by scanning pal.
func paletteIndex(k uint16, pal []uint16, byID *idTable) int {
	if k&0xff == 0 {
		return int(byID[k>>8]) - 1
	}
	return slices.Index(pal, k)
}

// packIndices packs the palette index of every block in blocks, bits wide
// each, into out, which they must fill to a whole number of 32-bit words
// (any multiple of 32 blocks does). Every block must be in pal; byID
// indexes pal's Data-0 entries.
func packIndices(out []byte, blocks []Block, bits uint, pal []uint16, byID *idTable) {
	lastKey := blocks[0].key()
	lastIdx := paletteIndex(lastKey, pal, byID)
	var acc uint64 // pending bits, the oldest lowest
	var n uint     // how many of them
	for _, b := range blocks {
		if k := b.key(); k != lastKey {
			lastKey, lastIdx = k, paletteIndex(k, pal, byID)
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
// overwriting every block plus Pos, Version and GenWork and dropping any
// kept encoding (a caller that knows buf is canonical attaches it with
// KeepEncoded) — the chunk needs no prior reset, so pooled (recycled)
// chunks decode identically to fresh ones, never inheriting a stale
// encoding. On error the chunk's contents are unspecified. Layers the stream
// holds uniform are adopted as fills; the mixed ones reuse the storage c
// kept, and what is missing is allocated once, after everything but their
// indices has validated — so with a small palette (the terrain norm) a
// chunk that has held as many mixed layers decodes with zero allocations.
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
	layerLen := packedLen(1, bits)
	// Eight indices are `bits` whole bytes, so a packed layer equal to
	// itself shifted by that many bytes repeats its first eight blocks
	// throughout.
	periodic := func(in []byte) bool { return bytes.Equal(in[:layerLen-int(bits)], in[bits:]) }

	// A first pass adopts the layers the wire says are uniform — the
	// common case: periodic, and the eight blocks one type — as fills, and
	// counts the rest, and the height below which they and every fill
	// other than Block{} lie. Nothing of c is written, and no layer
	// allocated, until every such layer has been range-checked.
	var head [ChunkSizeY]layerHead
	mixed, top := 0, 0
	for y := range head {
		in := data[y*layerLen:][:layerLen]
		if periodic(in) {
			var first [8]Block
			if err := unpackIndices(first[:], in, bits, palette); err != nil {
				return err
			}
			if *(*[7]Block)(first[:]) == *(*[7]Block)(first[1:]) {
				head[y].fill = first[0]
				if first[0] != (Block{}) {
					top = y + 1
				}
				continue
			}
		}
		mixed++
		head[y].slot = uint16(mixed)
		top = y + 1
	}
	c.Pos = pos
	c.Version = 0
	c.GenWork = 0
	c.enc = nil
	c.head = append(c.head[:0], head[:top]...)
	c.resizeMixed(mixed)
	for y, h := range c.head {
		s := h.slot
		if s == 0 {
			continue
		}
		in := data[y*layerLen:][:layerLen]
		l := c.mixed[s-1]
		// Unpack — and range-check — a periodic layer's first eight
		// blocks, and copy the rest.
		n := layerBlocks
		if periodic(in) {
			n = 8
		}
		if err := unpackIndices(l[:n], in, bits, palette); err != nil {
			return err
		}
		for ; n < layerBlocks; n *= 2 {
			copy(l[n:], l[:n])
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
