package world

// ChunkPool is a bounded freelist of Chunk values for the chunk-churn fast
// path: generation storms, store round-trips and far-chunk unloads move a
// Chunk per event — its layer heads (4 bytes a layer up to the highest
// non-air one) plus 512 bytes for every mixed layer, ~6 KiB of default
// terrain — and without recycling each is three or four fresh heap
// allocations. The pool is deliberately not
// concurrency-safe — each shard owns one, and all Get/Put calls happen on
// that shard's lane (or inside its ordered commit drain), which the lane
// scheduler already serialises.
//
// Put resets the chunk before shelving it (Chunk.Reset: the layer heads
// are cleared, their storage and that of the mixed layers is kept for the
// next occupant to decode into), so Get is semantically identical to NewChunk: a pooled
// chunk is indistinguishable from a fresh one (all-air blocks, zero
// GenWork). All methods are nil-safe; a nil *ChunkPool degrades to
// plain allocation.
type ChunkPool struct {
	free []*Chunk
	max  int

	// Recycled counts Gets served from the freelist; Fresh counts Gets
	// that fell through to allocation. Visible for tests and benchmarks.
	Recycled int
	Fresh    int
}

// DefaultChunkPoolCap bounds the freelist when NewChunkPool is given a
// non-positive capacity: enough to absorb an unload sweep's worth of
// chunks (~a view rectangle per player). A shelved chunk pins the layer
// storage its largest occupant needed — ~2 MiB for a full pool of default
// terrain, 32 MiB at the very worst (every layer of every chunk mixed).
const DefaultChunkPoolCap = 256

// NewChunkPool returns a pool holding at most max recycled chunks
// (DefaultChunkPoolCap if max <= 0).
func NewChunkPool(max int) *ChunkPool {
	if max <= 0 {
		max = DefaultChunkPoolCap
	}
	return &ChunkPool{max: max}
}

// Get returns a chunk positioned at pos: recycled from the freelist when
// one is available, freshly allocated otherwise. Either way the chunk is
// empty (all air) with zero GenWork.
func (p *ChunkPool) Get(pos ChunkPos) *Chunk {
	if p == nil {
		return NewChunk(pos)
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.Recycled++
		c.Pos = pos
		return c
	}
	p.Fresh++
	return NewChunk(pos)
}

// Put resets c to the empty chunk and shelves it for reuse. Chunks beyond
// the pool's capacity are dropped for the GC to take. The caller must not
// retain c after Put — in particular, a chunk must not be Put while a
// deferred commit closure still references it (e.g. a pending store
// write); persistence paths recycle inside the same commit, after the
// write.
func (p *ChunkPool) Put(c *Chunk) {
	if p == nil || c == nil || len(p.free) >= p.max {
		return
	}
	c.Reset(ChunkPos{})
	p.free = append(p.free, c)
}
