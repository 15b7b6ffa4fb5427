package mve

import (
	"slices"
	"testing"
	"time"

	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// heldStore answers a load only when the test does: pending holds each
// position's callbacks in request order. It records forgets and stores.
type heldStore struct {
	pending map[world.ChunkPos][]func(*world.Chunk, bool)
	forgets []func(world.ChunkPos) bool
	stored  map[world.ChunkPos]int
}

var _ CachingChunkStore = (*heldStore)(nil)

func newHeldStore() *heldStore {
	return &heldStore{
		pending: make(map[world.ChunkPos][]func(*world.Chunk, bool)),
		stored:  make(map[world.ChunkPos]int),
	}
}

func (h *heldStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	h.pending[pos] = append(h.pending[pos], cb)
}
func (h *heldStore) Store(c *world.Chunk) { h.stored[c.Pos]++ }
func (h *heldStore) ForgetWhere(pred func(world.ChunkPos) bool) {
	h.forgets = append(h.forgets, pred)
}

// FlushWhere has nothing to write: Store records a store as it happens.
func (h *heldStore) FlushWhere(_ func(world.ChunkPos) bool, done func()) { done() }

// forgot counts the ForgetWhere calls that matched pos.
func (h *heldStore) forgot(pos world.ChunkPos) int {
	n := 0
	for _, pred := range h.forgets {
		if pred(pos) {
			n++
		}
	}
	return n
}

// answer runs pos's oldest pending load with c (nil: not found).
func (h *heldStore) answer(t *testing.T, pos world.ChunkPos, c *world.Chunk) {
	t.Helper()
	cbs := h.pending[pos]
	if len(cbs) == 0 {
		t.Fatalf("no load of %v pending", pos)
	}
	if len(cbs) == 1 {
		delete(h.pending, pos)
	} else {
		h.pending[pos] = cbs[1:]
	}
	cbs[0](c, c != nil)
}

// marked is the flat chunk at pos with stone at (0, 10, 0): the chunk as
// its owner left it in storage.
func marked(pos world.ChunkPos) *world.Chunk {
	c := terrain.Flat{}.Generate(pos)
	c.Set(0, 10, 0, world.Block{ID: world.Stone})
	return c
}

// TestReloadChunksRereadsWhatWasInFlight: ReloadChunks reads a resident
// chunk again, and a chunk whose store read or generation was in flight
// at the gain — or had landed and awaited its tick — is read again: the
// answer is dropped, never applied nor stored, after the store forgot
// what it cached of it.
func TestReloadChunksRereadsWhatWasInFlight(t *testing.T) {
	loop := sim.NewLoop(3)
	h := newHeldStore()
	s := NewServer(loop, Config{WorldType: "flat", ViewDistance: 16, Store: h})
	read, gen, resident, landed := world.ChunkPos{}, world.ChunkPos{X: 1}, world.ChunkPos{Z: 1}, world.ChunkPos{X: 1, Z: 1}
	all := []world.ChunkPos{read, gen, resident, landed}
	for pos := range h.pending {
		if pos != read && pos != gen && pos != landed {
			h.answer(t, pos, terrain.Flat{}.Generate(pos))
		}
	}
	s.Start()
	loop.RunUntil(100 * time.Millisecond) // the answers apply at a tick
	if !s.World().Loaded(resident) {
		t.Fatalf("%v not loaded", resident)
	}
	h.answer(t, gen, nil)                                // not found: the local backend generates it
	h.answer(t, landed, terrain.Flat{}.Generate(landed)) // applied at the next tick

	if n := s.ReloadChunks(func(cp world.ChunkPos) bool { return slices.Contains(all, cp) }); n != 1 {
		t.Fatalf("ReloadChunks dropped %d resident chunks, want 1", n)
	}
	if s.World().Loaded(resident) {
		t.Fatal("the resident copy is still loaded")
	}
	for _, pos := range all {
		if h.forgot(pos) != 1 {
			t.Fatalf("the store was told to forget %v %d times, want once", pos, h.forgot(pos))
		}
	}
	h.answer(t, read, terrain.Flat{}.Generate(read)) // the read from before the gain
	if len(h.pending[read]) != 1 {
		t.Fatalf("the stale answer for %v was not read again (pending %d)", read, len(h.pending[read]))
	}
	loop.RunUntil(2 * time.Second) // the stale generation lands and is dropped
	for _, pos := range []world.ChunkPos{gen, landed} {
		if len(h.pending[pos]) != 1 || s.World().Loaded(pos) || h.stored[pos] != 0 {
			t.Fatalf("the stale answer for %v was kept (pending reads %d, loaded %v, stored %d)", pos, len(h.pending[pos]), s.World().Loaded(pos), h.stored[pos])
		}
	}
	for _, pos := range all {
		h.answer(t, pos, marked(pos))
	}
	loop.RunUntil(3 * time.Second)
	for _, pos := range all {
		c := s.World().Chunk(pos)
		if c == nil || c.At(0, 10, 0).ID != world.Stone {
			t.Fatalf("%v does not hold what storage holds after the reload", pos)
		}
	}
	if len(h.pending) != 0 || s.stale.Len() != 0 {
		t.Fatalf("%d loads still pending, %d positions still stale", len(h.pending), s.stale.Len())
	}
}
