package world_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"servo/internal/terrain"
	"servo/internal/world"
)

// flatModel is what a Chunk was until its layers moved out of line: every
// block in one array, in the format's (y, z, x) order. It is the reference
// model chunkOps holds the layered store to.
type flatModel [world.BlocksPerChunk]world.Block

const layerBlocks = world.ChunkSizeX * world.ChunkSizeZ

func (m *flatModel) layer(y int) *[layerBlocks]world.Block {
	return (*[layerBlocks]world.Block)(m[y*layerBlocks:])
}

// agrees checks every read a Chunk offers against the model.
func (m *flatModel) agrees(t *testing.T, c *world.Chunk) {
	t.Helper()
	nonAir := 0
	var surface [world.ChunkSizeZ][world.ChunkSizeX]int
	for i, want := range m {
		x, y, z := i%world.ChunkSizeX, i/layerBlocks, i/world.ChunkSizeX%world.ChunkSizeZ
		if got := c.At(x, y, z); got != want {
			t.Fatalf("At(%d,%d,%d) = %v, model holds %v", x, y, z, got, want)
		}
		if want.ID != world.Air {
			nonAir++
		}
		if y == 0 {
			surface[z][x] = -1
		}
		if want.ID.Solid() {
			surface[z][x] = y
		}
	}
	if got := c.NonAirCount(); got != nonAir {
		t.Fatalf("NonAirCount = %d, model counts %d", got, nonAir)
	}
	for z, row := range surface {
		for x, want := range row {
			if got := c.SurfaceY(x, z); got != want {
				t.Fatalf("SurfaceY(%d,%d) = %d, model says %d", x, z, got, want)
			}
		}
	}
	// OracleEncode reads through At, which was just held to the model: its
	// bytes are the model's encoding.
	if !bytes.Equal(c.Encode(), world.OracleEncode(c)) {
		t.Fatal("Encode differs from the oracle's encoding of the model")
	}
}

// opBlock draws from a palette small enough for edits to collide: air, air
// carrying data (not the zero Block, but still air), solids, water.
func opBlock(sel byte) world.Block {
	return [...]world.Block{
		{}, {ID: world.Air, Data: 3}, {ID: world.Stone}, {ID: world.Water},
		{ID: world.Wire, Data: 15}, {ID: world.Wire, Data: 14}, {ID: world.Grass},
	}[int(sel)%7]
}

// chunkOps interprets data as a sequence of four-byte operations — kind
// (mod 8: Set, FillLayer, SetLayer, Clone, encode→DecodeChunkInto a dirty
// chunk, ChunkPool Put→Get, encode→LoadEncoded a dirty chunk, seal: the
// chunk's LoadEncoded of its own kept encoding), an x/z or pattern byte, y,
// and a block selector — applied both to a Chunk and to the flat model, and
// after every one holds the chunk's reads, its encoding and its Version to
// the model: any change of content bumps Version, and nothing ever lowers
// it but a decode, a load, a seal or a trip through the pool, which zero it.
//
// It also holds the kept encoding to the content. Encoded is called after
// every op, so every op starts on a chunk holding bytes (the decode target
// too); afterwards Encoded must return the same bytes Encode does, and the
// very slice held before when the content did not change, the very slice
// loaded after a load or a seal, a fresh one when the content changed or
// when the chunk went through a decode or the pool.
//
// A loaded or sealed chunk must stay sealed until a block is read: its
// content is checked through a decoded copy of its encoding, and then the
// block selector picks which read, if any, opens it (At, NonAirCount,
// SurfaceY, either side of Equal). A chunk left sealed meets the next op
// sealed, which must then decode it in place and keep Version and the
// kept bytes.
func chunkOps(t *testing.T, data []byte) {
	const maxOps = 48
	pos := world.ChunkPos{X: -2, Z: 11}
	c, model := world.NewChunk(pos), new(flatModel)
	spare := dirtyChunk(rand.New(rand.NewSource(int64(len(data)))))
	pool := world.NewChunkPool(2)
	held := c.Encoded()
	// The decode target starts out sealed with stale bytes over the storage
	// of its dirty layers (its own encoding costs about a second — its
	// palette is huge), which the first decode into it must drop.
	spareHeld := world.NewChunk(world.ChunkPos{X: 7}).Encode()
	if err := spare.LoadEncoded(spareHeld); err != nil {
		t.Fatal(err)
	}
	for op := 0; op < maxOps && len(data) >= 4; op, data = op+1, data[4:] {
		kind, a, y, sel := data[0]%8, int(data[1]), int(data[2]), data[3]
		before, was := c.Version, *model
		switch kind {
		case 0:
			x, z := a%world.ChunkSizeX, a/world.ChunkSizeX
			c.Set(x, y, z, opBlock(sel))
			model.layer(y)[z*world.ChunkSizeX+x] = opBlock(sel)
		case 1:
			c.FillLayer(y, opBlock(sel))
			for i := range model.layer(y) {
				model.layer(y)[i] = opBlock(sel)
			}
		case 2:
			// Every (a%9+1)-th block differs; a%9 == 0 is a uniform layer.
			l := model.layer(y)
			for i := range l {
				l[i] = opBlock(sel)
				if i%(a%9+1) != 0 {
					l[i] = opBlock(sel + 1)
				}
			}
			in := *l // SetLayer must copy: scribbling on in afterwards is harmless
			c.SetLayer(y, &in)
			in[0].Data++
		case 3:
			// Carry on with a clone; scribbling over the original must not show.
			orig := c
			c = orig.Clone()
			if c.Version != before {
				t.Fatalf("Clone changed Version %d to %d", before, c.Version)
			}
			for y := 0; y < world.ChunkSizeY; y++ {
				orig.Set(y%16, y, 3, world.Block{ID: world.Lamp, Data: 1})
				orig.FillLayer(y, world.Block{ID: world.Gravel})
			}
		case 4:
			// Through the wire into a chunk that last held something else.
			if err := world.DecodeChunkInto(spare, c.Encode()); err != nil {
				t.Fatalf("decode of an encoded chunk: %v", err)
			}
			c, spare = spare, c
			held, spareHeld = spareHeld, held
		case 5:
			pool.Put(c)
			c = pool.Get(pos)
			*model = flatModel{}
		case 6:
			// Loaded into a chunk that last held something else, as the
			// loaders do.
			buf := c.Encode()
			if err := spare.LoadEncoded(buf); err != nil {
				t.Fatalf("load of an encoded chunk: %v", err)
			}
			c, spare = spare, c
			held, spareHeld = buf, held
		case 7:
			// Stored and loaded back: the bytes the chunk kept.
			if err := c.LoadEncoded(held); err != nil {
				t.Fatalf("seal with the kept encoding: %v", err)
			}
		}
		switch {
		case kind >= 4:
			if c.Version != 0 || c.GenWork != 0 || c.Pos != pos {
				t.Fatalf("op %d (kind %d): a decoded, loaded or pooled chunk has version %d, genwork %d, pos %v",
					op, kind, c.Version, c.GenWork, c.Pos)
			}
		case c.Version < before, c.Version == before && was != *model:
			t.Fatalf("op %d (kind %d): content changed %v, Version %d → %d", op, kind, was != *model, before, c.Version)
		}
		if sealed := world.Sealed(c); sealed != (kind >= 6) {
			t.Fatalf("op %d (kind %d): sealed %v", op, kind, sealed)
		}
		if kind >= 6 {
			openSealed(t, c, model, sel)
		} else {
			model.agrees(t, c)
		}
		enc := c.Encoded()
		kept := &enc[0] == &held[0]
		switch {
		case kind == 4 || kind == 5:
			if kept {
				t.Fatalf("op %d: a decoded or pooled chunk kept the encoding it held before", op)
			}
		case kind >= 6 && !kept:
			t.Fatalf("op %d (kind %d): a loaded chunk does not hand out the bytes it was loaded from", op, kind)
		case kept != (was == *model):
			t.Fatalf("op %d (kind %d): content changed %v, kept encoding %v", op, kind, was != *model, kept)
		}
		if !bytes.Equal(enc, c.Encode()) {
			t.Fatalf("op %d (kind %d): Encoded differs from Encode", op, kind)
		}
		if d, err := world.DecodeChunk(enc); err != nil || !d.Equal(c) {
			t.Fatalf("op %d (kind %d): Encoded does not decode to the chunk (%v)", op, kind, err)
		}
		held = enc
	}
}

// openSealed checks a sealed chunk against the model without opening it,
// then reads it the way sel picks — or not at all, leaving it sealed for
// the next op — and holds what it opened to the model. Opening keeps
// Version and the kept encoding.
func openSealed(t *testing.T, c *world.Chunk, model *flatModel, sel byte) {
	t.Helper()
	enc, version := c.Encoded(), c.Version
	if again := c.EncodeAppend([]byte{1}); !bytes.Equal(again[1:], enc) {
		t.Fatal("EncodeAppend of a sealed chunk differs from its kept encoding")
	}
	d, err := world.DecodeChunk(enc)
	if err != nil {
		t.Fatalf("a sealed chunk's encoding does not decode: %v", err)
	}
	model.agrees(t, d)
	if !world.Sealed(c) {
		t.Fatal("encoding a sealed chunk opened it")
	}
	switch sel % 6 {
	case 0:
		return
	case 1:
		c.At(int(sel)%world.ChunkSizeX, int(sel), 0)
	case 2:
		c.NonAirCount()
	case 3:
		c.SurfaceY(0, int(sel)%world.ChunkSizeZ)
	case 4:
		if !c.Equal(d) {
			t.Fatal("a sealed chunk differs from its decoded encoding")
		}
	case 5:
		if !d.Equal(c) {
			t.Fatal("a decoded encoding differs from the sealed chunk")
		}
	}
	if world.Sealed(c) {
		t.Fatalf("read %d left the chunk sealed", sel%6)
	}
	if c.Version != version || &c.Encoded()[0] != &enc[0] {
		t.Fatal("opening a sealed chunk changed its Version or dropped its encoding")
	}
	model.agrees(t, c)
}

// FuzzChunkOps is the model-based test of the layered chunk store; see
// chunkOps. Its seeds are the files under testdata/fuzz/FuzzChunkOps, named
// for what each sequence exercises; go test runs them in tier-1.
func FuzzChunkOps(f *testing.F) {
	f.Fuzz(chunkOps)
}

// TestChunkOpsRandom drives chunkOps with random sequences long enough to
// promote most of a chunk's layers.
func TestChunkOpsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		data := make([]byte, 4*48)
		r.Read(data)
		chunkOps(t, data)
	}
}

// heapDelta returns what build's result adds to the live heap.
func heapDelta(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestResidentChunkFootprint pins what the layered store is for: a resident
// chunk costs what its mixed layers cost, not a flat 128 KiB, and a head as
// tall as its highest non-air layer, not all 256. Chunks arrive as the
// server gets them — decoded from the wire into fresh chunks.
func TestResidentChunkFootprint(t *testing.T) {
	const n = 256
	for _, tc := range []struct {
		gen      terrain.Generator
		perChunk int64
	}{
		{terrain.Default{Seed: 42}, 16 << 10},
		{terrain.Flat{}, 256}, // the struct and six layer heads
	} {
		encoded := make([][]byte, 0, n)
		for x := -8; x < 8; x++ {
			for z := -8; z < 8; z++ {
				encoded = append(encoded, tc.gen.Generate(world.ChunkPos{X: x, Z: z}).Encode())
			}
		}
		decoded := heapDelta(func() any {
			chunks := make([]*world.Chunk, 0, n)
			for _, enc := range encoded {
				c, err := world.DecodeChunk(enc)
				if err != nil {
					t.Fatal(err)
				}
				chunks = append(chunks, c)
			}
			return chunks
		})
		runtime.KeepAlive(encoded)
		// Generated in place (local terrain, boot regions) is as small.
		generated := heapDelta(func() any {
			chunks := make([]*world.Chunk, 0, n)
			for x := -8; x < 8; x++ {
				for z := -8; z < 8; z++ {
					chunks = append(chunks, tc.gen.Generate(world.ChunkPos{X: x, Z: z}))
				}
			}
			return chunks
		})
		t.Logf("%T: %d bytes a chunk decoded, %d generated", tc.gen, decoded/n, generated/n)
		if decoded/n > tc.perChunk || generated/n > tc.perChunk {
			t.Errorf("%T: a resident chunk costs %d bytes decoded, %d generated, want at most %d",
				tc.gen, decoded/n, generated/n, tc.perChunk)
		}
	}
}

// TestPoolDecodeCycleZeroAlloc: the chunk-churn path — Get a recycled
// chunk, decode terrain into it, Put it back — allocates nothing once the
// pool's chunks have held terrain of the same shape, because Put keeps the
// layer storage Reset leaves behind. So does a sealed chunk decoded on its
// first read.
func TestPoolDecodeCycleZeroAlloc(t *testing.T) {
	gen := terrain.Default{Seed: 42}
	var encoded [][]byte
	for x := 0; x < 8; x++ {
		encoded = append(encoded, gen.Generate(world.ChunkPos{X: x, Z: 3}).Encode())
	}
	pool := world.NewChunkPool(1)
	cycle := func() {
		for _, enc := range encoded {
			c := pool.Get(world.ChunkPos{})
			if err := world.DecodeChunkInto(c, enc); err != nil {
				t.Fatal(err)
			}
			pool.Put(c)
		}
	}
	cycle() // the pool's one chunk grows to the tallest of the eight
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("Get→DecodeChunkInto→Put allocates %.1f per 8 chunks, want 0", allocs)
	}
	onRead := func() {
		for _, enc := range encoded {
			c := pool.Get(world.ChunkPos{})
			if err := c.LoadEncoded(enc); err != nil {
				t.Fatal(err)
			}
			c.At(0, 0, 0)
			pool.Put(c)
		}
	}
	if allocs := testing.AllocsPerRun(10, onRead); allocs != 0 {
		t.Fatalf("Get→LoadEncoded→At→Put allocates %.1f per 8 chunks, want 0", allocs)
	}
	if pool.Fresh != 1 {
		t.Fatalf("pool allocated %d chunks, want 1", pool.Fresh)
	}
}

// TestPoolLoadEncodedCycleZeroAlloc: the load path — Get a recycled chunk,
// seal it with stored terrain, Put it back — allocates nothing at all, the
// first time round included: a sealed chunk holds no layer of its own.
func TestPoolLoadEncodedCycleZeroAlloc(t *testing.T) {
	gen := terrain.Default{Seed: 42}
	var encoded [][]byte
	for x := 0; x < 8; x++ {
		encoded = append(encoded, gen.Generate(world.ChunkPos{X: x, Z: 3}).Encode())
	}
	pool := world.NewChunkPool(1)
	pool.Put(world.NewChunk(world.ChunkPos{}))
	cycle := func() {
		for _, enc := range encoded {
			c := pool.Get(world.ChunkPos{})
			if err := c.LoadEncoded(enc); err != nil {
				t.Fatal(err)
			}
			if !world.Sealed(c) || &c.Encoded()[0] != &enc[0] {
				t.Fatal("a loaded chunk is not sealed with the bytes it was loaded from")
			}
			pool.Put(c)
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("Get→LoadEncoded→Put allocates %.1f per 8 chunks, want 0", allocs)
	}
	if pool.Fresh != 0 {
		t.Fatalf("pool allocated %d chunks, want 0", pool.Fresh)
	}
}
