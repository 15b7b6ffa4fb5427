package world

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockPosChunkMapping(t *testing.T) {
	cases := []struct {
		pos  BlockPos
		want ChunkPos
	}{
		{BlockPos{0, 0, 0}, ChunkPos{0, 0}},
		{BlockPos{15, 0, 15}, ChunkPos{0, 0}},
		{BlockPos{16, 0, 0}, ChunkPos{1, 0}},
		{BlockPos{-1, 0, -1}, ChunkPos{-1, -1}},
		{BlockPos{-16, 0, -17}, ChunkPos{-1, -2}},
		{BlockPos{100, 0, -100}, ChunkPos{6, -7}},
	}
	for _, c := range cases {
		if got := c.pos.Chunk(); got != c.want {
			t.Errorf("%v.Chunk() = %v, want %v", c.pos, got, c.want)
		}
	}
}

func TestChunkOriginRoundTrip(t *testing.T) {
	f := func(cx, cz int16) bool {
		cp := ChunkPos{X: int(cx), Z: int(cz)}
		return cp.Origin().Chunk() == cp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunksWithinRadius(t *testing.T) {
	got := ChunksWithin(BlockPos{X: 8, Z: 8}, 0)
	if len(got) != 1 || got[0] != (ChunkPos{0, 0}) {
		t.Fatalf("radius 0 = %v, want [chunk(0,0)]", got)
	}
	// Radius 16 from the center of chunk (0,0) touches all 8 neighbors.
	got = ChunksWithin(BlockPos{X: 8, Z: 8}, 16)
	if len(got) != 9 {
		t.Fatalf("radius 16 returned %d chunks, want 9", len(got))
	}
	if ChunksWithin(BlockPos{}, -1) != nil {
		t.Fatal("negative radius should return nil")
	}
}

func TestChunksWithinConsistentWithDistance(t *testing.T) {
	center := BlockPos{X: -23, Z: 41}
	const radius = 48
	within := make(map[ChunkPos]bool)
	for _, cp := range ChunksWithin(center, radius) {
		within[cp] = true
		if d := cp.DistanceBlocks(center); d > radius {
			t.Fatalf("chunk %v included but distance %d > %d", cp, d, radius)
		}
	}
	// Chunks just outside the returned square must be farther than radius.
	for cx := -10; cx <= 10; cx++ {
		for cz := -10; cz <= 10; cz++ {
			cp := ChunkPos{X: cx, Z: cz}
			if !within[cp] && cp.DistanceBlocks(center) <= radius {
				t.Fatalf("chunk %v at distance %d excluded", cp, cp.DistanceBlocks(center))
			}
		}
	}
}

func TestChunkSetAtAndVersion(t *testing.T) {
	c := NewChunk(ChunkPos{1, 2})
	if got := c.At(3, 64, 5); got.ID != Air {
		t.Fatalf("fresh chunk block = %v, want air", got)
	}
	c.Set(3, 64, 5, Block{ID: Stone})
	if got := c.At(3, 64, 5); got.ID != Stone {
		t.Fatalf("block = %v, want stone", got)
	}
	v := c.Version
	c.Set(3, 64, 5, Block{ID: Stone}) // no-op write
	if c.Version != v {
		t.Fatal("no-op write bumped version")
	}
	c.Set(3, 64, 5, Block{ID: Dirt})
	if c.Version == v {
		t.Fatal("mutating write did not bump version")
	}
	// Out-of-bounds access must be safe.
	c.Set(-1, 0, 0, Block{ID: Stone})
	c.Set(0, 300, 0, Block{ID: Stone})
	if got := c.At(16, 0, 0); got.ID != Air {
		t.Fatalf("out-of-bounds read = %v, want air", got)
	}
}

func TestChunkSurfaceY(t *testing.T) {
	c := NewChunk(ChunkPos{})
	if got := c.SurfaceY(0, 0); got != -1 {
		t.Fatalf("empty column SurfaceY = %d, want -1", got)
	}
	c.Set(0, 10, 0, Block{ID: Stone})
	c.Set(0, 20, 0, Block{ID: Water}) // not solid
	if got := c.SurfaceY(0, 0); got != 10 {
		t.Fatalf("SurfaceY = %d, want 10", got)
	}
}

func randomChunk(r *rand.Rand, nTypes int) *Chunk {
	c := NewChunk(ChunkPos{X: r.Intn(100) - 50, Z: r.Intn(100) - 50})
	for i := 0; i < 5000; i++ {
		c.Set(r.Intn(ChunkSizeX), r.Intn(ChunkSizeY), r.Intn(ChunkSizeZ),
			Block{ID: BlockID(r.Intn(nTypes)), Data: uint8(r.Intn(16))})
	}
	return c
}

func TestChunkEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		c := randomChunk(r, int(numBlockIDs))
		dec, err := DecodeChunk(c.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !dec.Equal(c) {
			t.Fatalf("round trip mismatch for chunk %v", c.Pos)
		}
	}
}

func TestChunkEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChunk(r, 4)
		dec, err := DecodeChunk(c.Encode())
		return err == nil && dec.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkEncodingCompact(t *testing.T) {
	// A typical terrain chunk (few block types) must encode far below the
	// raw 128 KiB representation.
	c := NewChunk(ChunkPos{})
	for x := 0; x < ChunkSizeX; x++ {
		for z := 0; z < ChunkSizeZ; z++ {
			for y := 0; y < 64; y++ {
				c.Set(x, y, z, Block{ID: Stone})
			}
			c.Set(x, 64, z, Block{ID: Grass})
		}
	}
	enc := c.Encode()
	if len(enc) > 32*1024 {
		t.Fatalf("terrain chunk encoded to %d bytes, want < 32 KiB", len(enc))
	}
}

func TestDecodeChunkRejectsCorruptInput(t *testing.T) {
	c := NewChunk(ChunkPos{})
	c.Set(0, 0, 0, Block{ID: Stone})
	enc := c.Encode()
	cases := map[string][]byte{
		"empty":           {},
		"short":           enc[:10],
		"bad magic":       append([]byte{0, 0, 0, 0}, enc[4:]...),
		"truncated data":  enc[:len(enc)-10],
		"truncated chunk": enc[:20],
	}
	for name, buf := range cases {
		if _, err := DecodeChunk(buf); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestDecodeChunkRejectsBadPaletteIndex(t *testing.T) {
	c := NewChunk(ChunkPos{})
	enc := c.Encode() // palette of 1 entry, one run of 256 air layers
	// Set the top bit of the run's fill index, past the palette.
	mut := make([]byte, len(enc))
	copy(mut, enc)
	mut[len(mut)-1] |= 0x80
	if _, err := DecodeChunk(mut); err == nil {
		t.Fatal("decode accepted out-of-range palette index")
	}
}

func TestWorldBlockAddressingAcrossChunks(t *testing.T) {
	w := New()
	for cx := -1; cx <= 1; cx++ {
		for cz := -1; cz <= 1; cz++ {
			w.AddChunk(NewChunk(ChunkPos{X: cx, Z: cz}))
		}
	}
	positions := []BlockPos{
		{0, 5, 0}, {-1, 5, -1}, {15, 5, 16}, {-16, 5, 15}, {31, 5, -16},
	}
	for i, p := range positions {
		want := Block{ID: Stone, Data: uint8(i)}
		if !w.SetBlockAt(p, want) {
			t.Fatalf("SetBlockAt(%v) reported unloaded chunk", p)
		}
		if got := w.BlockAt(p); got != want {
			t.Fatalf("BlockAt(%v) = %v, want %v", p, got, want)
		}
	}
	if w.BlockAt(BlockPos{X: 1000, Z: 1000}) != (Block{}) {
		t.Fatal("unloaded chunk must read as air")
	}
	if w.SetBlockAt(BlockPos{X: 1000, Z: 1000}, Block{ID: Stone}) {
		t.Fatal("SetBlockAt on unloaded chunk must report false")
	}
}

func TestWorldRemoveChunk(t *testing.T) {
	w := New()
	c := NewChunk(ChunkPos{X: 3, Z: 4})
	w.AddChunk(c)
	if got := w.RemoveChunk(c.Pos); got != c {
		t.Fatal("RemoveChunk did not return the chunk")
	}
	if w.Loaded(c.Pos) || w.LoadedCount() != 0 {
		t.Fatal("chunk still loaded after removal")
	}
	if w.RemoveChunk(c.Pos) != nil {
		t.Fatal("removing an absent chunk must return nil")
	}
}

// TestWorldSlots holds the slot contract over random loads, replaces and
// unloads: slots are unique among loaded chunks and below the peak loaded
// count, a chunk keeps its slot while loaded (replacing it at the same
// position included), an unloaded chunk has none, and a new position takes
// the slot freed last.
func TestWorldSlots(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := New()
	held := make(map[ChunkPos]int)
	var freed []int
	peak := 0
	for i := 0; i < 4000; i++ {
		pos := ChunkPos{X: r.Intn(12) - 6, Z: r.Intn(12) - 6}
		prev, loaded := held[pos]
		switch {
		case r.Intn(3) == 0:
			w.RemoveChunk(pos)
			if loaded {
				delete(held, pos)
				freed = append(freed, prev)
			}
		case loaded:
			w.AddChunk(NewChunk(pos))
			if got := w.Slot(pos); got != prev {
				t.Fatalf("op %d: replacing %v moved its slot %d to %d", i, pos, prev, got)
			}
		default:
			w.AddChunk(NewChunk(pos))
			got := w.Slot(pos)
			if n := len(freed); n > 0 {
				if got != freed[n-1] {
					t.Fatalf("op %d: %v took slot %d, want the last freed %d", i, pos, got, freed[n-1])
				}
				freed = freed[:n-1]
			}
			held[pos] = got
		}
		peak = max(peak, len(held))
		if w.Slot(pos) >= 0 != (w.Chunk(pos) != nil) {
			t.Fatalf("op %d: %v has slot %d, chunk loaded %v", i, pos, w.Slot(pos), w.Chunk(pos) != nil)
		}
		seen := make(map[int]ChunkPos, len(held))
		for cp, slot := range held {
			if got := w.Slot(cp); got != slot {
				t.Fatalf("op %d: %v's slot moved %d → %d while loaded", i, cp, slot, got)
			}
			if slot < 0 || slot >= peak {
				t.Fatalf("op %d: %v's slot %d outside [0, %d)", i, cp, slot, peak)
			}
			if other, dup := seen[slot]; dup {
				t.Fatalf("op %d: %v and %v share slot %d", i, cp, other, slot)
			}
			seen[slot] = cp
		}
		if w.LoadedCount() != len(held) {
			t.Fatalf("op %d: %d chunks loaded, model holds %d", i, w.LoadedCount(), len(held))
		}
	}
}

func TestSolidBlockClassification(t *testing.T) {
	if Air.Solid() || Water.Solid() || !Stone.Solid() {
		t.Error("solidity classification wrong")
	}
}

func TestBlockKeyRoundTripQuick(t *testing.T) {
	f := func(id, data uint8) bool {
		b := Block{ID: BlockID(id), Data: data}
		return blockFromKey(b.key()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockIDString(t *testing.T) {
	if Stone.String() != "stone" || Wire.String() != "wire" {
		t.Fatal("block name mapping broken")
	}
	if BlockID(200).String() == "" {
		t.Fatal("unknown block must have a fallback name")
	}
}
