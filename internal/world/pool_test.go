package world

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeAppendMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var buf []byte
	for i := 0; i < 10; i++ {
		c := randomChunk(r, int(numBlockIDs))
		want := c.Encode()
		buf = c.EncodeAppend(buf[:0])
		if !bytes.Equal(buf, want) {
			t.Fatalf("EncodeAppend bytes differ from Encode for chunk %v", c.Pos)
		}
		// Append semantics: an existing prefix is preserved.
		withPrefix := c.EncodeAppend([]byte("prefix"))
		if !bytes.Equal(withPrefix[:6], []byte("prefix")) || !bytes.Equal(withPrefix[6:], want) {
			t.Fatalf("EncodeAppend clobbered the dst prefix for chunk %v", c.Pos)
		}
	}
}

// TestDecodeChunkIntoRecycledEqualsFresh is the chunk-recycling contract:
// decoding into a pooled chunk that previously held other terrain must be
// block-for-block identical to a fresh decode, with no residue from the
// previous occupant.
func TestDecodeChunkIntoRecycledEqualsFresh(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		pool := NewChunkPool(4)
		// First occupant: fill a chunk, unload it into the pool.
		prev := randomChunk(rand.New(rand.NewSource(seedA)), 5)
		prev.GenWork = 42
		pool.Put(prev)
		// Second occupant: decode different terrain into the recycled chunk.
		src := randomChunk(rand.New(rand.NewSource(seedB)), 5)
		enc := src.Encode()
		recycled := pool.Get(ChunkPos{})
		if recycled != prev {
			return false // pool must have recycled the same backing chunk
		}
		if err := DecodeChunkInto(recycled, enc); err != nil {
			return false
		}
		fresh, err := DecodeChunk(enc)
		if err != nil {
			return false
		}
		return recycled.Equal(fresh) && recycled.Pos == src.Pos &&
			recycled.GenWork == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPoolResetAndBounds(t *testing.T) {
	pool := NewChunkPool(2)
	c := randomChunk(rand.New(rand.NewSource(3)), 4)
	c.GenWork = 9
	pool.Put(c)
	got := pool.Get(ChunkPos{X: 5, Z: -3})
	if got != c {
		t.Fatal("Get did not recycle the shelved chunk")
	}
	if got.Pos != (ChunkPos{X: 5, Z: -3}) || got.GenWork != 0 {
		t.Fatalf("recycled chunk not reset: pos=%v genwork=%d", got.Pos, got.GenWork)
	}
	if got.NonAirCount() != 0 {
		t.Fatalf("recycled chunk holds %d stale blocks, want all air", got.NonAirCount())
	}
	if !got.Equal(NewChunk(ChunkPos{X: 5, Z: -3})) {
		t.Fatal("recycled chunk differs from a fresh NewChunk")
	}
	// Capacity bound: only max chunks are shelved.
	pool.Put(NewChunk(ChunkPos{}))
	pool.Put(NewChunk(ChunkPos{}))
	pool.Put(NewChunk(ChunkPos{}))
	if len(pool.free) != 2 {
		t.Fatalf("pool holds %d chunks, want capacity bound 2", len(pool.free))
	}
	if pool.Recycled != 1 || pool.Fresh != 0 {
		t.Fatalf("counters = recycled %d fresh %d, want 1/0", pool.Recycled, pool.Fresh)
	}
	// Nil pool degrades to plain allocation.
	var nilPool *ChunkPool
	if nilPool.Get(ChunkPos{X: 1}) == nil {
		t.Fatal("nil pool Get misbehaved")
	}
	nilPool.Put(c) // must not panic
}

func TestChunkCodecZeroAlloc(t *testing.T) {
	c := NewChunk(ChunkPos{X: 2, Z: -7})
	for x := 0; x < ChunkSizeX; x++ {
		for z := 0; z < ChunkSizeZ; z++ {
			for y := 0; y < 60; y++ {
				c.Set(x, y, z, Block{ID: Stone})
			}
			c.Set(x, 60, z, Block{ID: Grass})
		}
	}
	buf := c.EncodeAppend(nil)
	dec := new(Chunk)
	allocs := testing.AllocsPerRun(20, func() {
		buf = c.EncodeAppend(buf[:0])
		if err := DecodeChunkInto(dec, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm EncodeAppend+DecodeChunkInto allocates %.1f/op, want 0", allocs)
	}
	if !dec.Equal(c) {
		t.Fatal("round trip mismatch")
	}
}
