package world

import (
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
// A chunk loaded with LoadEncoded is sealed: it is only its encoding, and
// the first read or write of a block (At, Set, FillLayer, SetLayer,
// SurfaceY, Equal) decodes it in place. So a read may
// write the chunk: like any write, it must happen on the chunk's shard's
// lane or under the game-loop lock, never concurrently with another read.
// Encoding a sealed chunk hands out the bytes it was loaded from and
// leaves it sealed.
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
	// sealed means enc, which LoadEncoded validated, is the content: head
	// and mixed are empty (their storage kept) until open decodes it.
	sealed bool
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
// GenWork and no kept encoding, unsealed. The storage of its head and mixed
// layers is kept for the next occupant.
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

// open makes a sealed chunk's layers its content, decoding its encoding in
// place; Pos, Version, GenWork and the encoding stay as they are. Every
// method that reads or writes blocks opens the chunk first.
func (c *Chunk) open() {
	if c.sealed {
		c.unseal()
	}
}

func (c *Chunk) unseal() {
	c.sealed = false
	var head [ChunkSizeY]layerHead
	l, err := parseChunk(c.enc, &head)
	if err != nil {
		panic("world: sealed chunk does not decode: " + err.Error()) // LoadEncoded checked it
	}
	c.install(l, &head)
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
	c.open()
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
	c.open()
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
// are stored as a fill, so a generator can emit every layer of its surface
// band through SetLayer and leave the chunk as small as its content allows.
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

// changed records a change of content: Version moves on and the kept
// encoding, which described the old content, is dropped.
func (c *Chunk) changed() {
	c.Version++
	c.enc = nil
}

// SurfaceY returns the Y coordinate of the highest solid block in the given
// column, or -1 if the column is empty.
func (c *Chunk) SurfaceY(x, z int) int {
	c.open()
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

// Equal reports whether two chunks hold identical block data at the same
// position (versions and generation metadata are ignored, and so is how
// each chunk happens to store a layer).
func (c *Chunk) Equal(o *Chunk) bool {
	if c.Pos != o.Pos {
		return false
	}
	c.open()
	o.open()
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
// The encoding carries the resident layout: runs of layers that each hold a
// single block type, and packed palette indices only for the layers that
// mix types. Format (little-endian):
//
//	magic   uint32  = 0x53564f4c ("SVOL")
//	posX    int32
//	posZ    int32
//	palMax  uint16          number of palette entries − 1 (never empty)
//	palette palMax+1 × uint16 packed Block keys
//	bits    uint8           index width in bits (1..16)
//	runs    3 bytes each, covering layers 0..255 bottom up:
//	  len   uint8           layers in the run − 1
//	  fill  uint16          palette index of the block filling each of
//	                        them, or 0xffff (mixedRun): they mix types
//	data    32*bits bytes per mixed layer, in Y order
//
// A flat chunk is a few runs and no data; a default-terrain chunk spells out
// only its surface band. 0xffff is never a fill index: a chunk with a
// uniform layer holds at most 1 + 255*256 = 65 281 distinct blocks, so the
// only palette with an index 0xffff — all 65 536 keys — leaves no layer
// uniform.
//
// A mixed layer's 256 indices are packed in block order (z, x), the i-th at
// bit offset i*bits, least-significant bit first: 256*bits bits are 8*bits
// whole 32-bit words for every legal width, which packIndices and
// unpackIndices read and write a word at a time.
//
// EncodeAppend writes one canonical stream per content: the palette in
// order of first appearance in (y, z, x) block order, the narrowest width,
// maximal runs, and every layer that holds one block type — however the
// chunk stores it — as a fill. DecodeChunkInto accepts any stream in the
// format: wider widths, repeated palette entries, runs split in two and
// mixed layers of one type all decode, and every run, index and length is
// checked. Nothing may follow the data. There is one format: chunk bytes
// live only in memory and on the wire, never past the process that wrote
// them, so a stream in the earlier all-layers format (magic "SVOC") is
// refused like any other bad magic.

const chunkMagic = 0x53564f4c

// chunkHeaderLen is the fixed part of an encoding before the palette.
const chunkHeaderLen = 14

// runLen is the length of one layer run; mixedRun is the fill index of a
// run of mixed layers.
const (
	runLen   = 3
	mixedRun = 0xffff
)

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

// Encode serialises the chunk to the layer-run format described above into
// a slice the caller owns.
func (c *Chunk) Encode() []byte {
	return c.EncodeAppend(nil)
}

// Encoded returns the encoding of the chunk's current content: the bytes
// LoadEncoded sealed it with, or else Encode's, which are then kept. Either
// way the slice is shared — with the chunk and with whoever else was handed
// it (storage keeps what it is given) — and must not be mutated. Any
// change of content drops it, so an unchanged chunk is encoded at most
// once however often it is stored.
func (c *Chunk) Encoded() []byte {
	if c.enc == nil {
		c.enc = c.Encode()
	}
	return c.enc
}

// EncodeAppend serialises the chunk to the layer-run format described
// above, appending to dst and returning the extended slice. dst grows at
// most once, to the encoding's final size, so EncodeAppend(nil) costs a
// single allocation and a reused buffer (`buf = c.EncodeAppend(buf[:0])`)
// none — EncodeAppend is the hot path of chunk persistence, terrain
// generation and the wire protocol. A sealed chunk appends the bytes it
// was loaded from and stays sealed.
//
// A first pass over the layers discovers the palette (first-appearance
// order, for determinism) and which layers mix types — one lookup for a
// fill, which is all but a dozen or so of a terrain chunk's 256 layers, and
// a walk of a stored layer's blocks. The runs follow from that pass, and a
// second packs the mixed layers' indices. Both look a block's palette
// index up only when it differs from the block before (a last-hit memo:
// real chunks have long runs of identical blocks), and then by its ID: a
// 256-entry table, kept on the stack, maps each BlockID to the palette
// index of its Data-0 block, which is every block terrain generates. Only
// a block with Data ≠ 0 (circuit state) falls back to a linear scan of the
// palette — real palettes are tiny, so the scan still beats hashing.
func (c *Chunk) EncodeAppend(dst []byte) []byte {
	if c.sealed {
		return append(dst, c.enc...)
	}
	var palArr [64]uint16 // keeps terrain-sized palettes off the heap
	var byID idTable      // the Data-0 entries of pal
	lastKey, lastIdx := c.At(0, 0, 0).key(), 0
	pal := append(palArr[:0], lastKey)
	byID.add(lastKey, 0)
	// fill[y] is the palette index of the one block layer y holds, or
	// mixedRun.
	var fill [ChunkSizeY]uint16
	runs, mixed := 0, 0
	for y := range fill {
		blocks := []Block{c.fillOf(y)}
		if l := c.mixedLayer(y); l != nil {
			blocks = l[:]
		}
		// A layer mixes types if the block changes after its first.
		isMixed := false
		for i, b := range blocks {
			if k := b.key(); k != lastKey {
				isMixed = isMixed || i > 0
				lastKey, lastIdx = k, paletteIndex(k, pal, &byID)
				if lastIdx < 0 {
					lastIdx = len(pal)
					pal = append(pal, k)
					byID.add(k, lastIdx)
				}
			}
		}
		fill[y] = uint16(lastIdx)
		if isMixed {
			fill[y] = mixedRun
			mixed++
		}
		if y == 0 || fill[y] != fill[y-1] {
			runs++
		}
	}

	// The size is known now: grow dst once and fill it in place. (By hand:
	// slices.Grow costs a second allocation under the race detector, and
	// the handler's one-allocation contract is tested there too.)
	bits := bitsFor(len(pal))
	runsOff := chunkHeaderLen + 2*len(pal) + 1
	dataOff := runsOff + runLen*runs
	layerLen := packedLen(1, bits)
	base, need := len(dst), dataOff+mixed*layerLen
	if cap(dst)-base < need {
		dst = append(make([]byte, 0, base+need), dst...)
	}
	dst = dst[:base+need]
	out := dst[base:]
	binary.LittleEndian.PutUint32(out, chunkMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(int32(c.Pos.X)))
	binary.LittleEndian.PutUint32(out[8:], uint32(int32(c.Pos.Z)))
	binary.LittleEndian.PutUint16(out[12:], uint16(len(pal)-1))
	for i, k := range pal {
		binary.LittleEndian.PutUint16(out[chunkHeaderLen+2*i:], k)
	}
	out[runsOff-1] = byte(bits)

	run, data := out[runsOff:dataOff], out[dataOff:]
	for y := 0; y < ChunkSizeY; {
		n := 1
		for y+n < ChunkSizeY && fill[y+n] == fill[y] {
			n++
		}
		run[0] = byte(n - 1)
		binary.LittleEndian.PutUint16(run[1:], fill[y])
		run = run[runLen:]
		if fill[y] == mixedRun {
			for i := range n {
				packIndices(data[:layerLen], c.mixedLayer(y + i)[:], bits, pal, &byID)
				data = data[layerLen:]
			}
		}
		y += n
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
// kept encoding — the chunk needs no prior reset, so pooled (recycled)
// chunks decode identically to fresh ones, never inheriting a stale
// encoding. On error c is unchanged. A loader that may never read the
// blocks calls LoadEncoded instead, which checks the same and decodes
// nothing.
//
// Runs of uniform layers become fills; the mixed layers reuse the storage c
// kept, and what is missing is allocated once, after the whole stream has
// validated — so a stream that is truncated, overruns, claims data it does
// not carry or holds an index past its palette allocates nothing, and with
// a small palette (the terrain norm) a chunk that has held as many mixed
// layers decodes with zero allocations.
func DecodeChunkInto(c *Chunk, buf []byte) error {
	var head [ChunkSizeY]layerHead
	l, err := parseChunk(buf, &head)
	if err != nil {
		return err
	}
	c.Pos = l.pos
	c.Version = 0
	c.GenWork = 0
	c.enc = nil
	c.sealed = false
	c.install(l, &head)
	return nil
}

// LoadEncoded makes c the sealed chunk that buf encodes: at buf's position,
// with Version and GenWork 0, and buf as its kept encoding, which the caller
// must not write again. It checks everything DecodeChunkInto checks, in the
// same order and with the same errors, but writes no block; the chunk
// decodes itself in place only when a block is first read or written. A
// stream Encode did not produce (a wider index width, say) is kept as it
// is, and Encoded and EncodeAppend hand it out unchanged. On error c is
// unchanged.
func (c *Chunk) LoadEncoded(buf []byte) error {
	l, err := parseChunk(buf, nil)
	if err != nil {
		return err
	}
	c.Pos = l.pos
	c.Version = 0
	c.GenWork = 0
	c.enc = buf
	c.sealed = true
	c.head = c.head[:0]
	c.mixed = c.mixed[:0]
	return nil
}

// chunkLayout is what an encoding says once all of it has checked out.
type chunkLayout struct {
	pos    ChunkPos
	palLen int
	keys   []byte // the palette, 2 bytes a key
	bits   uint
	mixed  int    // the number of mixed layers
	top    int    // the layers below which every mixed layer and non-Air fill lies
	data   []byte // the packed indices of the mixed layers, in Y order
}

// parseChunk checks all of buf — header, palette, index width, runs, data
// length and then every palette index — and fills head (when not nil) with
// every layer's head: a fill, or the 1-based slot of a mixed layer.
func parseChunk(buf []byte, head *[ChunkSizeY]layerHead) (chunkLayout, error) {
	var l chunkLayout
	if len(buf) < chunkHeaderLen {
		return l, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadChunkEncoding, len(buf))
	}
	if binary.LittleEndian.Uint32(buf) != chunkMagic {
		return l, fmt.Errorf("%w: bad magic", ErrBadChunkEncoding)
	}
	l.pos = ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
	}
	l.palLen = 1 + int(binary.LittleEndian.Uint16(buf[12:]))
	off := chunkHeaderLen + 2*l.palLen
	if len(buf) < off+1 {
		return l, fmt.Errorf("%w: truncated palette", ErrBadChunkEncoding)
	}
	l.keys = buf[chunkHeaderLen:off]
	l.bits = uint(buf[off])
	off++
	if l.bits == 0 || l.bits > 16 {
		return l, fmt.Errorf("%w: bad index width %d", ErrBadChunkEncoding, l.bits)
	}

	for y := 0; y < ChunkSizeY; {
		if len(buf) < off+runLen {
			return l, fmt.Errorf("%w: truncated runs at layer %d", ErrBadChunkEncoding, y)
		}
		n, idx := int(buf[off])+1, int(binary.LittleEndian.Uint16(buf[off+1:]))
		off += runLen
		if y+n > ChunkSizeY {
			return l, fmt.Errorf("%w: run of %d layers from layer %d overruns the chunk", ErrBadChunkEncoding, n, y)
		}
		switch {
		case idx == mixedRun:
			if head != nil {
				for i := range n {
					head[y+i].slot = uint16(l.mixed + i + 1)
				}
			}
			l.mixed += n
			y += n
			l.top = y
		case idx >= l.palLen:
			return l, fmt.Errorf("%w: fill index %d out of range", ErrBadChunkEncoding, idx)
		default:
			k := binary.LittleEndian.Uint16(l.keys[2*idx:])
			if head != nil {
				b := blockFromKey(k)
				for i := range n {
					head[y+i].fill = b
				}
			}
			y += n
			if k != (Block{}).key() {
				l.top = y
			}
		}
	}
	l.data = buf[off:]
	if want := packedLen(l.mixed, l.bits); len(l.data) != want {
		return l, fmt.Errorf("%w: %d bytes of block data, runs call for %d", ErrBadChunkEncoding, len(l.data), want)
	}
	return l, checkIndices(l.data, l.bits, l.palLen)
}

// install makes the layers l and head describe c's content, unpacking the
// mixed layers into the storage c kept and allocating what is missing.
func (c *Chunk) install(l chunkLayout, head *[ChunkSizeY]layerHead) {
	c.head = append(c.head[:0], head[:l.top]...)
	c.resizeMixed(l.mixed)
	if l.mixed == 0 {
		return
	}
	var palArr [64]Block
	var palette []Block
	if l.palLen <= len(palArr) {
		palette = palArr[:l.palLen]
	} else {
		palette = make([]Block, l.palLen)
	}
	for i := range palette {
		palette[i] = blockFromKey(binary.LittleEndian.Uint16(l.keys[2*i:]))
	}
	unpackIndices(c.mixed, l.data, l.bits, palette)
}

// indexGroup is how checkIndices tests the indices of width w ≤ 8 a
// 64-bit load at a time: a group is the 8·⌊8/w⌋ indices in the next
// w·⌊8/w⌋ ≤ 8 bytes, a whole number of bytes at every width.
type indexGroup struct {
	even  uint64 // a w-bit mask over every even field of the group
	low   uint64 // the low bit of every even field
	carry uint64 // the bit just above every even field
	bytes int    // the group's length
}

var indexGroups = func() (g [9]indexGroup) {
	for w := 1; w <= 8; w++ {
		fields := 8 * (8 / w)
		for j := 0; j < fields; j += 2 {
			g[w].even |= (1<<w - 1) << (j * w)
			g[w].low |= 1 << (j * w)
			g[w].carry |= 1 << (j*w + w)
		}
		g[w].bytes = fields * w / 8
	}
	return g
}()

// checkIndices reports, as DecodeChunkInto would, the first index in data,
// a whole number of mixed layers of bits-wide indices, that is not below
// palLen. A palette of 2^bits entries or more admits every index. Up to 8
// bits wide, a group of indices costs one 64-bit load: with the even
// fields masked out, adding 2^bits − palLen to each carries into the bit
// above it exactly when that index is palLen or more, and the odd fields,
// shifted down by bits, go the same way. The carries of every group are
// ORed together and tested once; only a stream that fails looks for the
// index to name.
func checkIndices(data []byte, bits uint, palLen int) error {
	if palLen >= 1<<bits {
		return nil
	}
	if bits > 8 {
		return firstBadIndex(data, bits, palLen)
	}
	g := &indexGroups[bits]
	add := g.low * uint64(1<<bits-palLen)
	var carries uint64
	i := 0
	for ; i+8 <= len(data); i += g.bytes {
		w := binary.LittleEndian.Uint64(data[i:])
		carries |= (w&g.even + add) | (w>>bits&g.even + add)
	}
	// The last groups have fewer than 8 bytes after them.
	for ; i < len(data); i += g.bytes {
		var tail [8]byte
		copy(tail[:], data[i:])
		w := binary.LittleEndian.Uint64(tail[:])
		carries |= (w&g.even + add) | (w>>bits&g.even + add)
	}
	if carries&g.carry != 0 {
		return firstBadIndex(data, bits, palLen)
	}
	return nil
}

// firstBadIndex is checkIndices one index at a time, 32 bits read at a
// time, as unpackIndices reads them.
func firstBadIndex(data []byte, bits uint, palLen int) error {
	mask := uint64(1)<<bits - 1
	var acc uint64 // unread bits, the next index lowest
	var n uint     // how many of them
	for count := len(data) * 8 / int(bits); count > 0; count-- {
		if n < bits {
			acc |= uint64(binary.LittleEndian.Uint32(data)) << n
			data = data[4:]
			n += 32
		}
		idx := acc & mask
		acc >>= bits
		n -= bits
		if idx >= uint64(palLen) {
			return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
		}
	}
	return nil
}

// unpackIndices fills layers, in order, with the palette entries of the
// bits-wide indices in data, read 32 bits at a time: a layer's 256 indices
// are 8·bits whole words. Every index must be below len(palette)
// (checkIndices).
//
// It stays out of line: inlined into install, the loop kept acc, n and i
// on the stack and decoded a default-terrain chunk about a third slower.
//
//go:noinline
func unpackIndices(layers []*layer, data []byte, bits uint, palette []Block) {
	mask := uint64(1)<<bits - 1
	for _, l := range layers {
		var acc uint64 // unread bits, the next index lowest
		var n uint     // how many of them
		for i := range l {
			if n < bits {
				acc |= uint64(binary.LittleEndian.Uint32(data)) << n
				data = data[4:]
				n += 32
			}
			l[i] = palette[acc&mask]
			acc >>= bits
			n -= bits
		}
	}
}
