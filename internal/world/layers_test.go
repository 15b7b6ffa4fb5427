package world

import (
	"bytes"
	"testing"
)

// layerKinds builds a chunk with one layer of every stored kind and returns
// the three layers' Y: a fill, a mixed layer, and a mixed layer that holds a
// single block type again (it was promoted by a Set that a second Set undid).
func layerKinds(t *testing.T) (c *Chunk, fillY, mixedY, uniformMixedY int) {
	c = NewChunk(ChunkPos{X: 4, Z: -9})
	fillY, mixedY, uniformMixedY = 10, 20, 30
	for _, y := range []int{fillY, mixedY, uniformMixedY} {
		c.FillLayer(y, Block{ID: Stone})
	}
	c.Set(3, mixedY, 5, Block{ID: Wire, Data: 7})
	c.Set(1, uniformMixedY, 2, Block{ID: Lamp})
	c.Set(1, uniformMixedY, 2, Block{ID: Stone})
	if c.mixedLayer(fillY) != nil || c.mixedLayer(mixedY) == nil || c.mixedLayer(uniformMixedY) == nil {
		t.Fatalf("layer kinds not as built: heads %v %v %v", c.head[fillY], c.head[mixedY], c.head[uniformMixedY])
	}
	return c, fillY, mixedY, uniformMixedY
}

// TestCloneSharesNothing: a Chunk value copy shares its mixed layers, so
// Clone must copy them. Every kind of change to one side — a fill refilled,
// a fill promoted, a mixed layer edited — leaves the other as it was.
func TestCloneSharesNothing(t *testing.T) {
	mutate := func(c *Chunk, fillY, mixedY int) {
		c.FillLayer(fillY, Block{ID: Sand})           // fill → fill
		c.Set(0, fillY+1, 0, Block{ID: Grass})        // fill → mixed
		c.Set(3, mixedY, 5, Block{ID: Wire, Data: 1}) // mixed → mixed
		c.Set(15, mixedY, 15, Block{ID: Battery})     //
		c.FillLayer(mixedY+1, Block{ID: Water})       // a second fill
		c.Set(7, mixedY+1, 7, Block{ID: Inverter})    // then promoted
		c.SetLayer(mixedY+2, &[layerBlocks]Block{{}, {ID: Snow}})
	}
	for _, side := range []string{"clone", "original"} {
		orig, fillY, mixedY, _ := layerKinds(t)
		want := orig.Encode()
		clone := orig.Clone()
		if !clone.Equal(orig) {
			t.Fatal("clone differs from the original")
		}
		changed, kept := clone, orig
		if side == "original" {
			changed, kept = orig, clone
		}
		mutate(changed, fillY, mixedY)
		if !bytes.Equal(kept.Encode(), want) {
			t.Fatalf("mutating the %s changed the other side", side)
		}
		if changed.Equal(kept) {
			t.Fatalf("mutating the %s had no effect", side)
		}
	}
}

// TestEqualAndEncodeIgnoreRepresentation: Equal and the codec are defined
// over what a chunk holds, not how it stores it. A mixed layer that Set has
// made uniform again equals, and encodes byte-identically to, the same
// layer stored as a fill; decoding either yields the fill.
func TestEqualAndEncodeIgnoreRepresentation(t *testing.T) {
	a, fillY, mixedY, uniformMixedY := layerKinds(t)
	b := NewChunk(a.Pos)
	for _, y := range []int{fillY, mixedY, uniformMixedY} {
		b.FillLayer(y, Block{ID: Stone})
	}
	b.Set(3, mixedY, 5, Block{ID: Wire, Data: 7})
	if b.mixedLayer(uniformMixedY) != nil {
		t.Fatal("b's layer is not a fill")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("a uniform mixed layer does not equal the same layer as a fill")
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("a uniform mixed layer encodes differently from the same layer as a fill")
	}
	if !bytes.Equal(a.Encode(), OracleEncode(a)) {
		t.Fatal("encoding differs from the oracle's")
	}
	if a.NonAirCount() != b.NonAirCount() || a.SurfaceY(1, 2) != b.SurfaceY(1, 2) {
		t.Fatal("NonAirCount or SurfaceY depends on the representation")
	}
	dec, err := DecodeChunk(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(a) || dec.mixedLayer(uniformMixedY) != nil || len(dec.mixed) != 1 {
		t.Fatalf("decode did not adopt the uniform layer as a fill (%d mixed layers)", len(dec.mixed))
	}
	// One block's difference is seen from both sides and in every pairing.
	b.Set(1, uniformMixedY, 2, Block{ID: Stone, Data: 1})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("chunks differing in one block are Equal")
	}
	b.Set(1, uniformMixedY, 2, Block{ID: Stone})
	a.FillLayer(fillY, Block{ID: Dirt})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("chunks differing in one fill are Equal")
	}
}

// TestPromoteAllocatesOneLayer: the first Set that mixes a uniform layer the
// head reaches allocates that layer's 512 bytes and nothing else — in
// particular it does not move the chunk's other mixed layers — one above
// the head allocates the grown head too, and a Set into a layer already
// mixed allocates nothing.
func TestPromoteAllocatesOneLayer(t *testing.T) {
	c := NewChunk(ChunkPos{})
	for y := 0; y < 64; y++ {
		c.Set(0, y, 0, Block{ID: Stone}) // 64 mixed layers, and room in the table
	}
	c.mixed = append(make([]*layer, 0, ChunkSizeY), c.mixed...)
	c.reach(ChunkSizeY - 1) // and a head that reaches every layer
	first := c.mixed[0]
	y := 64
	if allocs := testing.AllocsPerRun(100, func() {
		c.Set(1, y, 1, Block{ID: Grass})
		y++
	}); allocs != 1 {
		t.Fatalf("promoting a layer allocates %.1f objects, want 1", allocs)
	}
	if c.mixed[0] != first || c.At(0, 0, 0).ID != Stone || c.At(1, 100, 1).ID != Grass {
		t.Fatal("promotion disturbed another layer")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		y--
		c.Set(2, y, 2, Block{ID: Sand})
	}); allocs != 0 {
		t.Fatalf("a Set into a mixed layer allocates %.1f objects, want 0", allocs)
	}
	// A reset chunk promotes into the storage it kept.
	c.Reset(ChunkPos{})
	if allocs := testing.AllocsPerRun(100, func() {
		c.Set(1, y, 1, Block{ID: Grass})
		y++
	}); allocs != 0 {
		t.Fatalf("promoting into kept storage allocates %.1f objects, want 0", allocs)
	}
	// Above a head that stops short — building on a flat world's chunk —
	// the first edit also grows the head: two objects, the layer and the
	// head, and never the other layers.
	short := make([]*Chunk, 101)
	for i := range short {
		short[i] = NewChunk(ChunkPos{})
		for y := range 4 {
			short[i].FillLayer(y, Block{ID: Stone})
		}
		short[i].mixed = make([]*layer, 0, ChunkSizeY)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		short[i].Set(1, 64, 1, Block{ID: Lamp})
		i++
	}); allocs != 2 {
		t.Fatalf("promoting a layer above the head allocates %.1f objects, want 2", allocs)
	}
	for _, s := range short {
		if s.At(0, 3, 0).ID != Stone || s.At(1, 64, 1).ID != Lamp || s.At(1, 63, 1) != (Block{}) {
			t.Fatal("growing the head disturbed a layer")
		}
	}
}
