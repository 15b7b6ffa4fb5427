package rstore

import (
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

func newStore(seed int64) (*sim.Loop, *blob.Store, *Store) {
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	cache := tcache.New(loop, remote, tcache.DefaultConfig())
	return loop, remote, New(cache)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	loop, _, s := newStore(1)
	c := (terrain.Default{Seed: 5}).Generate(world.ChunkPos{X: 2, Z: 3})
	s.Store(c)
	var got *world.Chunk
	s.Load(c.Pos, func(lc *world.Chunk, ok bool) {
		if ok {
			got = lc
		}
	})
	loop.Run()
	if got == nil {
		t.Fatal("chunk not found after Store")
	}
	if !got.Equal(c) {
		t.Fatal("round-tripped chunk differs")
	}
	if s.DecodeFailures != 0 {
		t.Fatalf("decode failures = %d", s.DecodeFailures)
	}
}

// TestStoreOfLoadedChunkAllocatesNothing: a chunk loaded through Load is
// sealed with the cached bytes, so storing it back unchanged hands the
// cache that same slice — no encoding, no copy — and so does storing it
// once a read has decoded it.
func TestStoreOfLoadedChunkAllocatesNothing(t *testing.T) {
	loop, remote, s := newStore(6)
	want := (terrain.Default{Seed: 5}).Generate(world.ChunkPos{X: 2, Z: 3})
	remote.Put(tcache.Key(want.Pos), want.Encode(), nil)
	loop.Run()
	var c *world.Chunk
	s.Load(want.Pos, func(lc *world.Chunk, _ bool) { c = lc })
	loop.Run()
	if c == nil {
		t.Fatal("load did not deliver the stored chunk")
	}
	cachedEntry := func() []byte {
		var cached []byte
		s.cache.Get(want.Pos, func(data []byte, _ error) { cached = data })
		loop.Run()
		return cached
	}
	if cached, enc := cachedEntry(), c.Encoded(); &cached[0] != &enc[0] {
		t.Fatal("the loaded chunk does not keep the cached bytes it was loaded from")
	}
	for _, state := range []string{"sealed", "decoded"} {
		if state == "decoded" && !c.Equal(want) {
			t.Fatal("load did not deliver the stored chunk")
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Store(c) }); allocs != 0 {
			t.Fatalf("storing an unchanged %s loaded chunk allocates %.1f objects, want 0", state, allocs)
		}
		if cached, enc := cachedEntry(), c.Encoded(); &cached[0] != &enc[0] {
			t.Fatalf("storing the %s chunk replaced the cache entry with a copy", state)
		}
	}
}

func TestLoadMissingChunk(t *testing.T) {
	loop, _, s := newStore(2)
	called := false
	s.Load(world.ChunkPos{X: 9, Z: 9}, func(c *world.Chunk, ok bool) {
		called = true
		if ok {
			t.Error("missing chunk reported ok")
		}
	})
	loop.Run()
	if !called {
		t.Fatal("callback not delivered")
	}
	if s.DecodeFailures != 0 {
		t.Fatal("a miss is not a decode failure")
	}
}

func TestLoadCorruptObjectCountsDecodeFailure(t *testing.T) {
	loop, remote, s := newStore(3)
	remote.Put(tcache.Key(world.ChunkPos{X: 1, Z: 1}), []byte("garbage"), nil)
	loop.Run()
	ok := true
	s.Load(world.ChunkPos{X: 1, Z: 1}, func(_ *world.Chunk, o bool) { ok = o })
	loop.Run()
	if ok {
		t.Fatal("corrupt object reported ok")
	}
	if s.DecodeFailures != 1 {
		t.Fatalf("decode failures = %d, want 1", s.DecodeFailures)
	}
}

func TestObserveAvatarsPrefetches(t *testing.T) {
	loop, remote, s := newStore(4)
	// Seed remote storage with chunks around two avatars.
	for cx := -10; cx <= 10; cx++ {
		for cz := -10; cz <= 10; cz++ {
			c := terrain.Flat{}.Generate(world.ChunkPos{X: cx, Z: cz})
			remote.Put(tcache.Key(c.Pos), c.Encode(), nil)
		}
	}
	loop.Run()
	s.ObserveAvatars([]world.BlockPos{{X: 0, Z: 0}, {X: 64, Z: 64}}, 48)
	loop.RunUntil(loop.Now() + 10*time.Second)
	if got := s.cache.PrefetchIssued.Value(); got == 0 {
		t.Fatal("no prefetches issued")
	}
	// Chunks near an avatar must now be cache-local.
	if s.cache.Status(world.ChunkPos{X: 1, Z: 1}) != tcache.Local {
		t.Fatal("nearby chunk not prefetched into the cache")
	}
	// Duplicate positions across the two avatars must not double-fetch:
	// issued prefetches ≤ union of the two neighborhoods.
	union := make(map[world.ChunkPos]bool)
	for _, p := range []world.BlockPos{{X: 0, Z: 0}, {X: 64, Z: 64}} {
		for _, cp := range world.ChunksWithin(p, 48) {
			union[cp] = true
		}
	}
	if got := int(s.cache.PrefetchIssued.Value()); got > len(union) {
		t.Fatalf("prefetched %d chunks, union is %d", got, len(union))
	}
}

func TestStoreIsWriteBack(t *testing.T) {
	loop, remote, s := newStore(5)
	s.Store(terrain.Flat{}.Generate(world.ChunkPos{X: 7, Z: 7}))
	loop.Run()
	if remote.Writes.Value() != 0 {
		t.Fatal("Store must go through the write-back cache, not straight to remote")
	}
	s.cache.Flush()
	loop.Run()
	if remote.Writes.Value() != 1 {
		t.Fatalf("remote writes after flush = %d, want 1", remote.Writes.Value())
	}
}
