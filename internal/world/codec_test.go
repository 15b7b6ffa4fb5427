package world_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"servo/internal/terrain"
	"servo/internal/world"
)

// keyBlock is the block a 16-bit palette key stands for.
func keyBlock(k int) world.Block {
	return world.Block{ID: world.BlockID(k >> 8), Data: uint8(k)}
}

// fillChunk sets every block of a new chunk from f(x, y, z).
func fillChunk(pos world.ChunkPos, f func(x, y, z int) world.Block) *world.Chunk {
	c := world.NewChunk(pos)
	for y := 0; y < world.ChunkSizeY; y++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			for x := 0; x < world.ChunkSizeX; x++ {
				c.Set(x, y, z, f(x, y, z))
			}
		}
	}
	return c
}

func randomPos(r *rand.Rand) world.ChunkPos {
	return world.ChunkPos{X: r.Intn(2001) - 1000, Z: r.Intn(2001) - 1000}
}

// paletteChunk returns a chunk holding exactly n distinct blocks: mostly
// uniform layers with a band of noise, or noise throughout.
func paletteChunk(r *rand.Rand, n int, noisy bool) *world.Chunk {
	keys := r.Perm(1 << 16)[:n]
	c := fillChunk(randomPos(r), func(x, y, z int) world.Block {
		if noisy || y%16 == 7 {
			return keyBlock(keys[r.Intn(n)])
		}
		return keyBlock(keys[y%n])
	})
	// Every key appears at least once, whatever the draws above did.
	for i, k := range keys {
		c.Set(i%16, 100+i/256, (i/16)%16, keyBlock(k))
	}
	return c
}

// sameIDChunk returns terrain whose surface band mixes one block type
// with Data 0 and with non-zero Data; dataFirst picks which the chunk's
// block order meets first.
func sameIDChunk(r *rand.Rand, dataFirst bool) *world.Chunk {
	c := terrain.Default{Seed: r.Int63()}.Generate(randomPos(r))
	id := []world.BlockID{world.Stone, world.Dirt, world.Wire}[r.Intn(3)]
	first, second := world.Block{ID: id}, world.Block{ID: id, Data: uint8(1 + r.Intn(255))}
	if dataFirst {
		first, second = second, first
	}
	c.Set(0, 0, 0, first)
	for i := 0; i < 600; i++ {
		b := first
		if r.Intn(2) == 0 {
			b = second
		}
		c.Set(r.Intn(16), 1+r.Intn(80), r.Intn(16), b)
	}
	return c
}

// codecShapes are the chunk shapes the codec is held to the oracle on.
var codecShapes = []struct {
	name string
	runs int
	gen  func(r *rand.Rand) *world.Chunk
	// palLen, when set, is the palette size (and so the index width)
	// the shape exists to reach.
	palLen int
}{
	{"default-terrain", 12, func(r *rand.Rand) *world.Chunk {
		return terrain.Default{Seed: r.Int63()}.Generate(randomPos(r))
	}, 0},
	{"flat", 2, func(r *rand.Rand) *world.Chunk { return terrain.Flat{}.Generate(randomPos(r)) }, 0},
	{"all-air", 1, func(r *rand.Rand) *world.Chunk { return world.NewChunk(randomPos(r)) }, 0},
	{"single-block-type", 3, func(r *rand.Rand) *world.Chunk {
		b := keyBlock(1 + r.Intn(1<<16-1))
		return fillChunk(randomPos(r), func(int, int, int) world.Block { return b })
	}, 0},
	{"constructs", 6, func(r *rand.Rand) *world.Chunk {
		// Flat terrain carrying circuits: stateful blocks whose Data
		// differs block to block, on and above the surface.
		c := terrain.Flat{}.Generate(randomPos(r))
		stateful := []world.BlockID{world.Wire, world.Battery, world.Lamp, world.Repeater, world.Inverter}
		for i := 0; i < 250*(1+r.Intn(4)); i++ {
			c.Set(r.Intn(16), terrain.FlatSurfaceY+1+r.Intn(3), r.Intn(16),
				world.Block{ID: stateful[r.Intn(len(stateful))], Data: uint8(r.Intn(16))})
		}
		return c
	}, 0},
	{"noise", 3, func(r *rand.Rand) *world.Chunk {
		n := 2 + r.Intn(40)
		return fillChunk(randomPos(r), func(int, int, int) world.Block { return keyBlock(r.Intn(n) * 257) })
	}, 0},
	{"stripes", 3, func(r *rand.Rand) *world.Chunk {
		// Layers that repeat every 2, 4, 8 or 16 blocks: the first three
		// repeat within the decoder's eight-index period without being
		// uniform, the last does not.
		return fillChunk(randomPos(r), func(x, y, z int) world.Block {
			return keyBlock((x % (2 << (y % 4))) + y/64*16)
		})
	}, 0},
	{"palette-2", 2, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 2, false) }, 2},
	{"palette-3", 2, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 3, false) }, 3},
	{"palette-65", 2, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 65, false) }, 65},
	{"palette-257", 2, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 257, false) }, 257},
	{"palette-4097", 1, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 4097, false) }, 4097},
	// The encoder finds a Data-0 block's palette index by its ID and
	// scans the palette for any other: one ID with and without Data, in
	// both orders of first appearance, crossing inside mixed layers.
	{"same-id-data0-first", 2, func(r *rand.Rand) *world.Chunk { return sameIDChunk(r, false) }, 0},
	{"same-id-data-first", 2, func(r *rand.Rand) *world.Chunk { return sameIDChunk(r, true) }, 0},
	// Every ID with Data 0 and with Data 1 in a shuffled order: palette
	// indices past 255 behind both the table and the scan.
	{"every-id-both-data", 2, func(r *rand.Rand) *world.Chunk {
		keys := r.Perm(512)
		return fillChunk(randomPos(r), func(x, y, z int) world.Block {
			k := keys[((y*world.ChunkSizeZ+z)*world.ChunkSizeX+x)/8%512]
			return world.Block{ID: world.BlockID(k >> 1), Data: uint8(k & 1)}
		})
	}, 512},
	// ID 255, the table's last entry, first with Data 0 and then
	// {ID: 255, Data: 255}, the largest key.
	{"id-255", 2, func(r *rand.Rand) *world.Chunk {
		return fillChunk(randomPos(r), func(x, y, z int) world.Block {
			if y < 128 || (x+z)%3 == 0 {
				return world.Block{ID: 255}
			}
			return world.Block{ID: 255, Data: uint8(255 - r.Intn(2))}
		})
	}, 3},
	{"palette-65-noisy", 1, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 65, true) }, 65},
	{"palette-4097-noisy", 1, func(r *rand.Rand) *world.Chunk { return paletteChunk(r, 4097, true) }, 4097},
	// The largest key as the very first block, over terrain.
	{"all-ones-first", 2, func(r *rand.Rand) *world.Chunk {
		c := terrain.Default{Seed: r.Int63()}.Generate(randomPos(r))
		c.Set(0, 0, 0, keyBlock(0xffff))
		return c
	}, 0},
	// Every one of the 65 536 keys once: the largest palette, whose size
	// does not fit the 16-bit count field, and no layer uniform. Its
	// first-appearance order is shuffled.
	{"every-key", 1, func(r *rand.Rand) *world.Chunk {
		keys := r.Perm(1 << 16)
		return fillChunk(randomPos(r), func(x, y, z int) world.Block {
			return keyBlock(keys[(y*world.ChunkSizeZ+z)*world.ChunkSizeX+x])
		})
	}, 1 << 16},
}

// dirtyChunk returns a chunk as a pool hands one to a decoder at worst:
// every block, the position and the metadata hold another occupant's.
func dirtyChunk(r *rand.Rand) *world.Chunk {
	c := fillChunk(randomPos(r), func(int, int, int) world.Block { return keyBlock(r.Intn(1 << 16)) })
	c.GenWork = 77
	return c
}

// TestCodecMatchesOracle is the differential property the rewrite rests
// on: over every chunk shape the encoding is byte-identical to the
// per-block oracle's, and decoding it into a dirty recycled chunk yields
// the oracle's blocks.
func TestCodecMatchesOracle(t *testing.T) {
	for _, shape := range codecShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(12))
			for i := 0; i < shape.runs; i++ {
				c := shape.gen(r)
				want := world.OracleEncode(c)
				got := c.EncodeAppend(nil)
				if !bytes.Equal(got, want) {
					t.Fatalf("run %d: encoding differs from the oracle's (%d vs %d bytes)", i, len(got), len(want))
				}
				if n := 1 + int(binary.LittleEndian.Uint16(got[12:])); shape.palLen != 0 && n != shape.palLen {
					t.Fatalf("run %d: palette has %d entries, want %d", i, n, shape.palLen)
				}
				dec := dirtyChunk(r)
				if err := world.DecodeChunkInto(dec, got); err != nil {
					t.Fatalf("run %d: decode: %v", i, err)
				}
				ref := new(world.Chunk)
				if err := world.OracleDecodeInto(ref, got); err != nil {
					t.Fatalf("run %d: oracle decode: %v", i, err)
				}
				if !dec.Equal(ref) || !dec.Equal(c) {
					t.Fatalf("run %d: decode into a dirty chunk differs from the oracle's or the source", i)
				}
				if dec.GenWork != 0 {
					t.Fatalf("run %d: decode left genwork %d", i, dec.GenWork)
				}
			}
		})
	}
}

// tablesOf returns what AppendTables takes for c with each column its own
// class: the block IDs in order of first appearance, each layer's one
// palette index or MixedLayer, and a table function that maps a mixed
// layer's columns to their blocks' indices. c's blocks must all have Data
// 0.
func tablesOf(c *world.Chunk) (pal []world.BlockID, layers [world.ChunkSizeY]uint16, table func(y int) *[256]uint8) {
	var idx [256]int // 1 + the palette index of each BlockID, 0 until it appears
	for y := range layers {
		for col := 0; col < layerBlocks; col++ {
			id := c.At(col%world.ChunkSizeX, y, col/world.ChunkSizeX).ID
			if idx[id] == 0 {
				pal = append(pal, id)
				idx[id] = len(pal)
			}
			if col == 0 {
				layers[y] = uint16(idx[id] - 1)
			} else if uint16(idx[id]-1) != layers[y] {
				layers[y] = world.MixedLayer
			}
		}
	}
	return pal, layers, func(y int) *[256]uint8 {
		var t [256]uint8
		for col := range t {
			t[col] = uint8(idx[c.At(col%world.ChunkSizeX, y, col/world.ChunkSizeX).ID] - 1)
		}
		return &t
	}
}

// TestAppendTablesMatchesEncodeAppend: AppendTables, given a chunk's
// palette, layer fills and, for each mixed layer, a table from column to
// palette index, writes EncodeAppend's bytes at every index width it
// takes (palettes of 1 to 256 block IDs, first seen in a fill or in a mixed
// layer), with layers of one block type among the mixed ones and mixed
// layers at the chunk's bottom and top, after a prefix it leaves alone.
func TestAppendTablesMatchesEncodeAppend(t *testing.T) {
	var class [layerBlocks]uint8
	for col := range class {
		class[col] = uint8(col)
	}
	r := rand.New(rand.NewSource(46))
	for _, n := range []int{1, 2, 3, 4, 5, 9, 17, 33, 65, 129, 255, 256} {
		for _, band := range [][2]int{{10, 40}, {0, 3}, {250, world.ChunkSizeY}, {0, world.ChunkSizeY}} {
			for _, noisy := range []bool{false, true} {
				ids := r.Perm(256)[:n]
				// Layers outside the band hold one ID each, the band
				// mixes them on its noisy layers and holds one on the
				// others.
				c := fillChunk(randomPos(r), func(x, y, z int) world.Block {
					id := ids[y%n]
					if y >= band[0] && y < band[1] && (noisy || y%7 == 3) {
						id = ids[r.Intn(n)]
					}
					return world.Block{ID: world.BlockID(id)}
				})
				pal, layers, table := tablesOf(c)
				want := c.EncodeAppend([]byte("prefix"))
				if got := world.AppendTables([]byte("prefix"), c.Pos, pal, &layers, &class, table); !bytes.Equal(got, want) {
					t.Fatalf("%d blocks (noisy %v), band %v: AppendTables' bytes differ from EncodeAppend's", n, noisy, band)
				}
			}
		}
	}
}

// TestEncodeFirstBlockAllOnes: a first block whose key is the largest,
// {ID: 255, Data: 255} — a value a per-block encoder might take for "no
// block yet" — is listed first in the palette, the bytes are the oracle's,
// and both decoders read the chunk back.
func TestEncodeFirstBlockAllOnes(t *testing.T) {
	c := world.NewChunk(world.ChunkPos{X: 1, Z: 2})
	c.Set(0, 0, 0, keyBlock(0xffff))
	c.Set(1, 0, 0, keyBlock(0xffff))
	enc := c.Encode()
	// Two palette entries (a count of 1 more): {ID: 255, Data: 255}, then air.
	if want := []byte{1, 0, 0xff, 0xff, 0, 0}; !bytes.Equal(enc[12:18], want) {
		t.Fatalf("palette % x, want % x", enc[12:18], want)
	}
	if !bytes.Equal(enc, world.OracleEncode(c)) {
		t.Fatal("encoding differs from the oracle's")
	}
	dec, err := world.DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	ref := new(world.Chunk)
	if err := world.OracleDecodeInto(ref, enc); err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(c) || !ref.Equal(c) {
		t.Fatal("round trip mismatch")
	}
}

// TestEncodingSize is the format's size contract, computed from the
// chunk's content through At alone: header, palette, bits, one run per
// maximal stretch of layers alike (each holding the same one block, or
// each mixing types), and 32*bits bytes per mixed layer, where bits is the
// narrowest width that indexes the palette. A default-terrain chunk fits
// in 2 KiB and a flat one in 64 bytes.
func TestEncodingSize(t *testing.T) {
	for _, shape := range codecShapes {
		t.Run(shape.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(21))
			for i := 0; i < shape.runs; i++ {
				c := shape.gen(r)
				palette := map[world.Block]bool{}
				runs, mixed := 0, 0
				var prev world.Block
				prevMixed := false
				for y := 0; y < world.ChunkSizeY; y++ {
					first, isMixed := c.At(0, y, 0), false
					for j := 0; j < layerBlocks; j++ {
						b := c.At(j%world.ChunkSizeX, y, j/world.ChunkSizeX)
						palette[b] = true
						isMixed = isMixed || b != first
					}
					if isMixed {
						mixed++
					}
					if y == 0 || isMixed != prevMixed || (!isMixed && first != prev) {
						runs++
					}
					prev, prevMixed = first, isMixed
				}
				bits := 1
				for 1<<bits < len(palette) {
					bits++
				}
				want := 14 + 2*len(palette) + 1 + 3*runs + 32*bits*mixed
				if got := len(c.Encode()); got != want {
					t.Fatalf("run %d: %d bytes, want %d (%d palette entries, %d runs, %d mixed layers)",
						i, got, want, len(palette), runs, mixed)
				}
				if limit := map[string]int{"default-terrain": 2 << 10, "flat": 64}[shape.name]; limit != 0 && want > limit {
					t.Fatalf("run %d: a %s chunk encodes to %d bytes, want at most %d", i, shape.name, want, limit)
				}
			}
		})
	}
}

// layerRun is one run of a hand-built stream: n layers, each filled with
// palette entry fill, or each mixed if fill is mixed.
type layerRun struct{ n, fill int }

// mixed is the fill index that marks a run of mixed layers.
const mixed = 0xffff

// allMixed is the one run of a stream that packs every layer's indices.
var allMixed = []layerRun{{world.ChunkSizeY, mixed}}

// handStream builds a stream no Servo encoder writes: the given palette,
// index width and runs, and the mixed layers' indices from idx — the i-th
// index of the data, the mixed layers in Y order; all zero if idx is nil.
func handStream(palette []uint16, bits uint, runs []layerRun, idx func(i int) uint32) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x53564f4c)
	buf = binary.LittleEndian.AppendUint32(buf, 0xfffffffd) // X = -3
	buf = binary.LittleEndian.AppendUint32(buf, 9)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(palette)-1))
	for _, k := range palette {
		buf = binary.LittleEndian.AppendUint16(buf, k)
	}
	buf = append(buf, byte(bits))
	n := 0
	for _, r := range runs {
		buf = append(buf, byte(r.n-1))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.fill))
		if r.fill == mixed {
			n += r.n * layerBlocks
		}
	}
	off := len(buf)
	buf = append(buf, make([]byte, n*int(bits)/8)...)
	for i := 0; i < n && idx != nil; i++ {
		v, pos := uint64(idx(i)), uint(i)*bits
		for b := uint(0); b < bits; b++ {
			if v>>b&1 != 0 {
				buf[off+int((pos+b)/8)] |= 1 << ((pos + b) % 8)
			}
		}
	}
	return buf
}

// TestDecodeForeignStreams holds the decoder to the oracle on streams in
// the format that EncodeAppend would never produce — index widths wider
// than the palette needs, a repeated palette entry, runs split where they
// need not be, mixed-marked layers that hold one block type — and checks
// that every malformed run, index and length is refused.
func TestDecodeForeignStreams(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pal := []uint16{0, 0x0100, 0x0b07, 0x0100, 0xffff} // a repeated entry too
	// Layer 8 is mixed-marked but holds one block type.
	split := []layerRun{{3, 1}, {5, 1}, {1, mixed}, {2, mixed}, {100, 4}, {45, 3}, {100, 0}}
	for bits := uint(3); bits <= 16; bits++ {
		splitStream := handStream(pal, bits, split, func(i int) uint32 {
			if i < layerBlocks {
				return 2
			}
			return uint32(r.Intn(5))
		})
		streams := map[string][]byte{
			"wide-one-type-layers": handStream(pal, bits, allMixed, func(i int) uint32 { return uint32(i / 256 % 5) }),
			"wide-noise":           handStream(pal, bits, allMixed, func(int) uint32 { return uint32(r.Intn(5)) }),
			"wide-period8":         handStream(pal, bits, allMixed, func(i int) uint32 { return uint32(i % 8 % 5) }),
			"split-runs":           splitStream,
		}
		for name, buf := range streams {
			dec, ref := dirtyChunk(r), new(world.Chunk)
			if err := world.DecodeChunkInto(dec, buf); err != nil {
				t.Fatalf("%s bits=%d: %v", name, bits, err)
			}
			if err := world.OracleDecodeInto(ref, buf); err != nil {
				t.Fatalf("%s bits=%d: oracle: %v", name, bits, err)
			}
			if !dec.Equal(ref) {
				t.Fatalf("%s bits=%d: decode differs from the oracle's", name, bits)
			}
			// Sealed, the foreign bytes are handed out as they came.
			sealed := dirtyChunk(r)
			if err := sealed.LoadEncoded(buf); err != nil {
				t.Fatalf("%s bits=%d: LoadEncoded: %v", name, bits, err)
			}
			if !bytes.Equal(sealed.Encode(), buf) || !sealed.Equal(ref) {
				t.Fatalf("%s bits=%d: the sealed chunk re-encodes or differs from the oracle's", name, bits)
			}
			// What decoded re-encodes (at the natural width) to an equal chunk.
			again, err := world.DecodeChunk(dec.Encode())
			if err != nil || !again.Equal(dec) {
				t.Fatalf("%s bits=%d: re-encode round trip failed: %v", name, bits, err)
			}
		}
		// Index 5 is one past the palette: as a whole mixed-marked layer,
		// as one block of an otherwise one-type layer, as the last block,
		// and as a run's fill.
		outOfRange := func(at int, v uint32) func(i int) uint32 {
			return func(i int) uint32 {
				if i == at || at < 0 && i/layerBlocks == 200 {
					return v
				}
				return 1
			}
		}
		bad := map[string][]byte{
			"index-whole-layer": handStream(pal, bits, allMixed, outOfRange(-1, 5)),
			"index-one-block":   handStream(pal, bits, allMixed, outOfRange(77*256+13, 5)),
			"index-last-block":  handStream(pal, bits, allMixed, outOfRange(world.BlocksPerChunk-1, 7)),
			"fill-index":        handStream(pal, bits, []layerRun{{56, 1}, {200, 5}}, nil),
			"runs-overrun":      handStream(pal, bits, []layerRun{{200, 1}, {57, 0}}, nil),
			"runs-stop-short":   handStream(pal, bits, []layerRun{{200, 1}, {55, 0}}, nil),
			"data-short":        splitStream[:len(splitStream)-1],
			"data-long":         append(bytes.Clone(splitStream), 0),
		}
		for name, buf := range bad {
			err := world.DecodeChunkInto(dirtyChunk(r), buf)
			if !errors.Is(err, world.ErrBadChunkEncoding) {
				t.Fatalf("%s bits=%d: accepted (err %v)", name, bits, err)
			}
			if lerr := new(world.Chunk).LoadEncoded(buf); fmt.Sprint(lerr) != fmt.Sprint(err) {
				t.Fatalf("%s bits=%d: decoder says %v, LoadEncoded says %v", name, bits, err, lerr)
			}
			if oerr := world.OracleDecodeInto(new(world.Chunk), buf); oerr == nil {
				t.Fatalf("%s bits=%d: the oracle accepts it", name, bits)
			}
		}
	}
}

// TestDecodeChunkAllocationBounded: nothing is allocated before header,
// palette, runs, length and indices validate — a hostile header, a run
// that overruns the chunk, runs claiming data the stream does not carry or
// a palette index out of range cannot make the decoder allocate at all —
// and whatever the input, a
// chunk decoded fresh never costs more than one flat chunk: a stream is
// free to mix all 256 layers (8 KiB of 1-bit indices does), and then the
// decoder owes each its 512 bytes, but never more than that, its 2 KiB
// table of layers and the Chunk with its 1 KiB of layer heads — beside, as
// ever, a palette of more than 64 entries, which the input's own length
// justifies.
func TestDecodeChunkAllocationBounded(t *testing.T) {
	// allocated reports what decoding buf into c allocates; a nil c is a
	// new Chunk allocated inside the measurement, so the figure is what
	// the whole decoded chunk costs.
	allocated := func(c *world.Chunk, buf []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if c == nil {
			c = new(world.Chunk)
			decodedChunk = c // on the heap, as a resident chunk is
		}
		err := world.DecodeChunkInto(c, buf)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	r := rand.New(rand.NewSource(1))
	pal := []uint16{0, 0x0100}
	noise1bit := handStream(pal, 1, allMixed, func(int) uint32 { return uint32(r.Intn(2)) })

	hostile := binary.LittleEndian.AppendUint32(nil, 0x53564f4c)
	hostile = append(hostile, make([]byte, 8)...)
	hostile = binary.LittleEndian.AppendUint16(hostile, 0xffff) // 65 536 palette entries, none present
	hostile = append(hostile, make([]byte, 64)...)
	badWidth := bytes.Clone(noise1bit)
	badWidth[14+2*2] = 17
	wide := handStream(pal, 16, allMixed, nil)
	// Noise whose last index is out of range.
	badLast := handStream(pal, 2, allMixed, func(i int) uint32 {
		if i == world.BlocksPerChunk-1 {
			return 3
		}
		return uint32(r.Intn(2))
	})
	for name, buf := range map[string][]byte{
		"hostile-palette-len": hostile,
		"bad-width":           badWidth,
		"truncated-data":      noise1bit[:len(noise1bit)-1],
		"mixed-runs-no-data":  wide[:14+2*2+1+3],
		"runs-overrun":        handStream(pal, 1, []layerRun{{200, mixed}, {200, mixed}}, nil),
		"bad-last-index":      badLast,
	} {
		got, err := allocated(new(world.Chunk), buf)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		// The error value itself is the only allocation (a few hundred
		// bytes of formatting under the race detector).
		if got > 1024 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(buf), got)
		}
	}

	// One flat chunk's blocks, the layer table, the Chunk — its layer heads
	// (4 bytes a layer) and 128 bytes of fields — and slack for size-class
	// rounding.
	const ceiling = 2*world.BlocksPerChunk + 2048 + 4*world.ChunkSizeY + 128 + 1024
	for name, tc := range map[string]struct {
		buf     []byte
		palette uint64 // what a spilled palette may add
	}{
		"noise-1bit":   {noise1bit, 0}, // 8 KiB that mix every layer
		"palette-4097": {paletteChunk(r, 4097, true).Encode(), 2 * 4097 * 5 / 4},
	} {
		got, err := allocated(nil, tc.buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got > ceiling+tc.palette {
			t.Errorf("%s: decoding %d bytes allocated %d, want at most %d", name, len(tc.buf), got, ceiling+tc.palette)
		}
	}
}

// decodedChunk keeps the chunk TestDecodeChunkAllocationBounded measures
// on the heap.
var decodedChunk *world.Chunk

// FuzzDecodeChunk feeds the decoder arbitrary bytes. It must not panic,
// must agree with the per-block oracle on what is accepted and on every
// decoded block (decoding into a dirty recycled chunk), and whatever
// decodes must re-encode to the oracle's bytes, which decode to an equal
// chunk. LoadEncoded must accept exactly what the decoder accepts and
// refuse the rest with the decoder's error, and the chunk it seals must
// hand out the input slice itself as its encoding and equal the decoded
// chunk. Allocation is bounded by construction;
// TestDecodeChunkAllocationBounded holds that. The seeds are the
// differential test's shapes (bar the largest palettes, whose 70–130 KB
// inputs slow the fuzzer to a crawl) plus the hostile files under
// testdata/fuzz/FuzzDecodeChunk.
func FuzzDecodeChunk(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, shape := range codecShapes {
		if shape.palLen <= 65 {
			f.Add(shape.gen(r).Encode())
		}
	}
	dirty := dirtyChunk(r)
	f.Fuzz(func(t *testing.T, data []byte) {
		// A Chunk value copy shares its layers, so a dirty chunk to decode
		// over is a Clone, never `*dec = *dirty`.
		dec, ref, sealed := dirty.Clone(), new(world.Chunk), dirty.Clone()
		err, oerr := world.DecodeChunkInto(dec, data), world.OracleDecodeInto(ref, data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decoder says %v, oracle says %v", err, oerr)
		}
		if lerr := sealed.LoadEncoded(data); fmt.Sprint(lerr) != fmt.Sprint(err) {
			t.Fatalf("decoder says %v, LoadEncoded says %v", err, lerr)
		}
		if err != nil {
			if !errors.Is(err, world.ErrBadChunkEncoding) {
				t.Fatalf("rejection %v does not wrap ErrBadChunkEncoding", err)
			}
			return
		}
		if enc := sealed.Encoded(); len(enc) != len(data) || &enc[0] != &data[0] {
			t.Fatal("a sealed chunk's encoding is not the slice it was loaded from")
		}
		if sealed.Pos != dec.Pos || sealed.GenWork != 0 {
			t.Fatalf("sealed chunk at %v, genwork %d; decoded at %v",
				sealed.Pos, sealed.GenWork, dec.Pos)
		}
		if !sealed.Equal(dec) {
			t.Fatal("the sealed chunk differs from the decoded one")
		}
		if !dec.Equal(ref) {
			t.Fatal("decoded blocks differ from the oracle's")
		}
		// The encoder's palette search is linear (fine for real chunks,
		// whose palettes are tiny), so a mutated header declaring tens of
		// thousands of entries over noise costs seconds to re-encode and
		// stalls the fuzzer; TestCodecMatchesOracle covers large palettes.
		if binary.LittleEndian.Uint16(data[12:]) > 512 {
			return
		}
		enc := dec.Encode()
		again, err := world.DecodeChunk(enc)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if !again.Equal(dec) {
			t.Fatal("re-encoded chunk decodes to a different chunk")
		}
		if !bytes.Equal(enc, world.OracleEncode(dec)) {
			t.Fatal("re-encoding differs from the oracle's")
		}
	})
}

// TestDecodeChunkCorpus: the hand-written seeds under
// testdata/fuzz/FuzzDecodeChunk are what their names say — those named
// valid-* decode, every other one is refused by both decoders and by
// LoadEncoded.
func TestDecodeChunkCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeChunk")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		buf, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a []byte seed (%v)", e.Name(), err)
		}
		valid := strings.HasPrefix(e.Name(), "valid-")
		derr := world.DecodeChunkInto(dirtyChunk(rand.New(rand.NewSource(1))), []byte(buf))
		oerr := world.OracleDecodeInto(new(world.Chunk), []byte(buf))
		lerr := new(world.Chunk).LoadEncoded([]byte(buf))
		if (derr == nil) != valid || (oerr == nil) != valid || (lerr == nil) != valid {
			t.Errorf("%s: decoder says %v, oracle says %v, LoadEncoded says %v", e.Name(), derr, oerr, lerr)
		}
	}
}
