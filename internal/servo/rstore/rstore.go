// Package rstore implements Servo's remote state storage (paper §III-E):
// chunk persistence through managed (serverless) storage, fronted by the
// local pre-fetching cache of internal/servo/tcache, so that storage
// latency variability never reaches the game loop.
//
// It implements mve.ChunkStore (load/store) and mve.AvatarObserver
// (distance-based pre-fetching driven by avatar positions).
package rstore

import (
	"errors"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/world"
)

// Store is a cached remote chunk store.
type Store struct {
	cache *tcache.Cache
	// pool recycles decoded chunks (UseChunkPool); nil falls back to
	// plain allocation.
	pool *world.ChunkPool
	// seen and batch are ObserveAvatars' working set, reused across calls.
	seen  map[world.ChunkPos]bool
	batch []world.ChunkPos

	// DecodeFailures counts stored objects that failed to decode
	// (corruption guard; always zero in healthy runs).
	DecodeFailures int
}

// New returns a store over the given cache.
func New(cache *tcache.Cache) *Store {
	return &Store{cache: cache, seen: make(map[world.ChunkPos]bool)}
}

// Cache exposes the underlying terrain cache (for metrics).
func (s *Store) Cache() *tcache.Cache { return s.cache }

// UseChunkPool makes the store decode loads into recycled chunks from p
// (typically the owning shard's pool).
func (s *Store) UseChunkPool(p *world.ChunkPool) { s.pool = p }

// Load implements mve.ChunkStore: fetch through the cache; a missing
// object reports ok=false so the server generates the chunk instead.
func (s *Store) Load(pos world.ChunkPos, cb func(c *world.Chunk, ok bool)) {
	s.cache.Get(pos, func(data []byte, err error) {
		if err != nil {
			// The cache retries chaos-injected faults internally
			// (tcache.fetch uses blob.GetRetrying), so any error here is
			// a genuine not-found or corruption.
			if !errors.Is(err, blob.ErrNotFound) {
				s.DecodeFailures++
			}
			cb(nil, false)
			return
		}
		c := s.pool.Get(pos)
		if derr := world.DecodeChunkInto(c, data); derr != nil {
			s.pool.Put(c)
			s.DecodeFailures++
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

// LoadMany implements mve.BatchingChunkStore: one call serves a whole
// tick's coalesced loads. Each position takes the same cache path as Load,
// in the order given, so hit/miss accounting and storage-latency draws
// are identical to the per-chunk calls this replaces.
func (s *Store) LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool)) {
	for _, cp := range pos {
		cp := cp
		s.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// Store implements mve.ChunkStore: encode and write back through the
// cache (flushed to remote storage periodically). The cache retains the
// bytes it is handed, so each write encodes into a slice of its own.
func (s *Store) Store(c *world.Chunk) {
	s.cache.Put(c.Pos, c.Encode())
}

// StoreThen implements mve.SyncingChunkStore: the chunk is written
// through to remote storage immediately (not on the periodic write-back),
// and done runs once the write lands. Ownership migrations flush the
// source shard's band through this path before flipping the band to its
// new owner.
func (s *Store) StoreThen(c *world.Chunk, done func()) {
	s.cache.PutThen(c.Pos, c.Encode(), done)
}

// PlayerKey returns the storage key for a player record.
func PlayerKey(name string) string { return "player/" + name }

// SavePlayer implements mve.PlayerStore: player records are small and
// written straight to remote storage (no chunk cache involved).
// Chaos-injected write faults are retried until the record lands.
func (s *Store) SavePlayer(name string, data []byte) {
	s.cache.Remote().PutRetrying(PlayerKey(name), data)
}

// LoadPlayer implements mve.PlayerStore. GetRetrying: a false "new
// player" would reset the player's persisted progress.
func (s *Store) LoadPlayer(name string, cb func(data []byte, ok bool)) {
	s.cache.Remote().GetRetrying(PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// ObserveAvatars implements mve.AvatarObserver: pre-fetch every chunk
// within the pre-fetch radius of any avatar (§III-E: "pre-fetches terrain
// data outside of, but close to, the player's view distance").
//
// The batch lists each chunk once, in order of first appearance; that
// order is the prefetch order and so fixes every storage-latency draw.
func (s *Store) ObserveAvatars(positions []world.BlockPos, radius int) {
	clear(s.seen)
	s.batch = s.batch[:0]
	for _, p := range positions {
		// Each avatar's chunks are appended and the ones already seen
		// compacted away in place.
		n := len(s.batch)
		s.batch = world.ChunksWithinAppend(s.batch, p, radius)
		for _, cp := range s.batch[n:] {
			if !s.seen[cp] {
				s.seen[cp] = true
				s.batch[n] = cp
				n++
			}
		}
		s.batch = s.batch[:n]
	}
	s.cache.Prefetch(s.batch)
}
