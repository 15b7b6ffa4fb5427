package tgen

import "servo/internal/world"

// GenCache is the cross-shard generation dedup cache: a bounded,
// FIFO-evicted map from chunk position to the encoded generation reply.
// When bordering shards both demand a seam chunk, whichever generation
// completes first publishes its reply here and the neighbour adopts the
// bytes instead of paying a second FaaS invocation.
//
// The cache is shared across shards but deliberately not locked: every
// access happens in serial context — backends publish from invocation
// callbacks and look up from commit-buffered adoption drains — which the
// lane scheduler already serialises in deterministic order, so the cache
// is byte-identical at every worker-pool size.
type GenCache struct {
	data world.ChunkMap[world.ChunkPos, []byte]
	// order is the FIFO eviction log in publish order, with a consumed
	// head index (compacted when the dead prefix dominates). A position
	// enters the log only when it is not cached (a republish replaces the
	// bytes in place) and leaves only by eviction, so order[head:] holds
	// exactly the positions in data.
	order []world.ChunkPos
	head  int
}

// genCacheSize bounds the cache: enough for the seam rectangles of a
// handful of shard borders (a few MiB of encoded terrain) without holding
// the whole world in memory.
const genCacheSize = 512

// NewGenCache returns an empty cache.
func NewGenCache() *GenCache {
	return &GenCache{}
}

// Publish records the encoded generation reply for pos, evicting the
// oldest entry at capacity. The cache retains data without copying
// (callers hand over invocation-owned reply buffers). Republishing a
// cached position replaces its bytes and keeps its place in the eviction
// order: generation is deterministic in (seed, pos), so a healthy
// republish changes nothing, and one that follows a refused adoption
// (the cached bytes did not decode) overwrites what every later adopter
// would refuse too.
func (g *GenCache) Publish(pos world.ChunkPos, data []byte) {
	if _, ok := g.data.Get(pos); ok {
		g.data.Put(pos, data)
		return
	}
	if g.data.Len() >= genCacheSize {
		g.data.Delete(g.order[g.head])
		g.head++
	}
	if g.head > 64 && g.head*2 >= len(g.order) {
		n := copy(g.order, g.order[g.head:])
		g.order = g.order[:n]
		g.head = 0
	}
	g.data.Put(pos, data)
	g.order = append(g.order, pos)
}

// Lookup returns the encoded reply cached for pos, or nil. The returned
// bytes are shared and must not be mutated.
func (g *GenCache) Lookup(pos world.ChunkPos) []byte {
	data, _ := g.data.Get(pos)
	return data
}
