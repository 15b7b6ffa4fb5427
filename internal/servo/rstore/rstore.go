// Package rstore implements Servo's remote state storage (paper §III-E):
// chunk persistence through managed (serverless) storage, fronted by the
// local pre-fetching cache of internal/servo/tcache, so that storage
// latency variability never reaches the game loop.
//
// A shard runs on one storage contract, mve.ChunkStore: loads, batched
// loads, write-back and completion-reporting writes, avatar observation
// (distance-based pre-fetching) and player records. Both stores here
// implement all of it: Store, the cached store, and Uncached, the direct
// blob-backed store of the baselines' local persistence and of Fig. 13's
// uncached curve (it observes nothing). The one optional extension is
// mve.CachingChunkStore (forget and flush what a cache holds), which only
// Store has; it stays optional because the benchmark's frozen store
// decorator does not forward it.
//
// The package also owns the blob key layout of the shared remote store:
// chunks under tcache.Key, player records and handoff snapshots under
// PlayerKey (Transfer), and the cluster's ownership table under
// OwnershipKey (TableStore).
package rstore

import (
	"errors"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/servo/tcache"
	"servo/internal/world"
)

var (
	_ mve.ChunkStore        = (*Store)(nil)
	_ mve.CachingChunkStore = (*Store)(nil)
)

// Store is a cached remote chunk store.
type Store struct {
	cache *tcache.Cache
	// pool recycles decoded chunks (UseChunkPool); nil falls back to
	// plain allocation.
	pool *world.ChunkPool
	// seen and batch are ObserveAvatars' working set, reused across calls:
	// the chunks of this call's batch, and the batch in prefetch order.
	seen  world.ChunkMap[world.ChunkPos, struct{}]
	batch []world.ChunkPos
	// settled holds view rects known to contain no tcache.Unknown chunk,
	// under settledRadius. A cache record's state field returns to
	// Unknown only through ForgetWhere, which clears this set when it
	// does (see tcache.Cache), so such a rect can never contribute a
	// prefetch again and ObserveAvatars skips it. It is only a skip hint:
	// dropping it costs one re-walk per avatar and changes nothing else.
	settled       map[world.ChunkRect]struct{}
	settledRadius int
	// live is pruneSettled's scratch.
	live []world.ChunkRect

	// decodeFailures counts stored objects that failed to decode
	// (corruption guard; always zero in healthy runs).
	decodeFailures int
}

// New returns a store over the given cache.
func New(cache *tcache.Cache) *Store {
	return &Store{
		cache:   cache,
		settled: make(map[world.ChunkRect]struct{}),
	}
}

// UseChunkPool makes the store decode loads into recycled chunks from p
// (typically the owning shard's pool).
func (s *Store) UseChunkPool(p *world.ChunkPool) { s.pool = p }

// Load implements mve.ChunkStore: fetch through the cache; a missing
// object reports ok=false so the server generates the chunk instead. The
// chunk is sealed with the cached bytes (LoadEncoded): it decodes only if
// a block is read, and storing it back unchanged writes that same slice.
func (s *Store) Load(pos world.ChunkPos, cb func(c *world.Chunk, ok bool)) {
	s.cache.Get(pos, func(data []byte, err error) {
		if err != nil {
			// The cache retries chaos-injected faults internally
			// (tcache.fetch uses blob.GetRetrying), so any error here is
			// a genuine not-found or corruption.
			if !errors.Is(err, blob.ErrNotFound) {
				s.decodeFailures++
			}
			cb(nil, false)
			return
		}
		c := s.pool.Get(pos)
		if derr := c.LoadEncoded(data); derr != nil {
			s.pool.Put(c)
			s.decodeFailures++
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

// ForgetWhere implements mve.CachingChunkStore: the cache forgets the
// positions pred matches. If a record fell back to Unknown, the settled
// rects, which assumed none would, are dropped (one re-walk per avatar);
// a forget that dropped nothing leaves them.
func (s *Store) ForgetWhere(pred func(world.ChunkPos) bool) {
	if s.cache.ForgetWhere(pred) {
		clear(s.settled)
	}
}

// FlushWhere implements mve.CachingChunkStore: the cache writes the
// dirty chunks pred matches through to remote storage, and done runs once
// they have landed.
func (s *Store) FlushWhere(pred func(world.ChunkPos) bool, done func()) {
	s.cache.FlushWhere(pred, done)
}

// LoadMany implements mve.ChunkStore: one call serves a whole
// tick's coalesced loads. Each position takes the same cache path as Load,
// in the order given, so hit/miss accounting and storage-latency draws
// are identical to the per-chunk calls this replaces.
func (s *Store) LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool)) {
	for _, cp := range pos {
		cp := cp
		s.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// Store implements mve.ChunkStore: write the chunk's encoding back
// through the cache (flushed to remote storage periodically). The cache
// and the blob store keep the very slice Encoded returns, which is never
// written again, so an unchanged chunk — generated, loaded or stored
// before — is written without encoding or copying anything.
func (s *Store) Store(c *world.Chunk) {
	s.cache.Put(c.Pos, c.Encoded())
}

// StoreThen implements mve.ChunkStore: the chunk is written
// through to remote storage immediately (not on the periodic write-back),
// and done runs once the write lands. Ownership migrations flush the
// source shard's band through this path before flipping the band to its
// new owner.
func (s *Store) StoreThen(c *world.Chunk, done func()) {
	s.cache.PutThen(c.Pos, c.Encoded(), done)
}

// PlayerKey returns the storage key for a player record.
func PlayerKey(name string) string { return "player/" + name }

// SavePlayer implements mve.ChunkStore: player records are small and
// written straight to remote storage (no chunk cache involved).
// Chaos-injected write faults are retried until the record lands.
func (s *Store) SavePlayer(name string, data []byte) {
	s.cache.Remote().PutRetrying(PlayerKey(name), data)
}

// LoadPlayer implements mve.ChunkStore. GetRetrying: a false "new
// player" would reset the player's persisted progress.
func (s *Store) LoadPlayer(name string, cb func(data []byte, ok bool)) {
	s.cache.Remote().GetRetrying(PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// settledPerAvatar bounds the settled set at this many rects per live
// avatar (plus settledSlack). A walker leaves one rect behind per chunk
// boundary it crosses; the trail is kept that long because avatars pace
// and turn back, then pruned.
const (
	settledPerAvatar = 8
	settledSlack     = 64
)

// ObserveAvatars implements mve.ChunkStore: pre-fetch every chunk
// within the pre-fetch radius of any avatar (§III-E: "pre-fetches terrain
// data outside of, but close to, the player's view distance").
//
// The batch lists each chunk the cache has never been asked about once,
// in order of first appearance over the avatars' view rects (avatar
// order, then X-major within a rect); that order is the prefetch order
// and so fixes every storage-latency draw. Prefetch ignores every other
// chunk, so the cost is kept to finding the unknown ones: an avatar whose
// rect is settled is skipped, a rect one chunk over from a settled one is
// walked only where the two differ, and a call that has found a whole
// prefetch budget of unknown chunks stops looking.
func (s *Store) ObserveAvatars(positions []world.BlockPos, radius int) {
	if radius != s.settledRadius {
		clear(s.settled)
		s.settledRadius = radius
	}
	if len(s.settled) > settledPerAvatar*len(positions)+settledSlack {
		s.pruneSettled(positions, radius)
	}
	s.seen.Clear()
	s.batch = s.batch[:0]
	budget := s.cache.PrefetchBudget()
	for _, p := range positions {
		r := world.ChunkRectWithin(p, radius)
		if _, ok := s.settled[r]; ok {
			continue
		}
		if budget > 0 && len(s.batch) >= budget {
			// Prefetch starts no more than this; the avatars not
			// reached stay unsettled for the next call.
			break
		}
		if s.walk(r) {
			s.settled[r] = struct{}{}
		}
	}
	s.cache.Prefetch(s.batch)
}

// pruneSettled drops every settled rect no avatar stands in now.
func (s *Store) pruneSettled(positions []world.BlockPos, radius int) {
	s.live = s.live[:0]
	for _, p := range positions {
		r := world.ChunkRectWithin(p, radius)
		if _, ok := s.settled[r]; ok {
			s.live = append(s.live, r)
		}
	}
	clear(s.settled)
	for _, r := range s.live {
		s.settled[r] = struct{}{}
	}
}

// walk appends r's unknown chunks to the batch, skipping the ones
// already in it, and reports whether r had none. Chunks inside a settled
// neighbour (r moved one chunk along X or Z) are known without asking,
// which leaves one edge strip for an avatar that crossed a chunk
// boundary, one corner chunk when both axes have a settled neighbour.
func (s *Store) walk(r world.ChunkRect) bool {
	w := r
	if s.isSettled(r, -1, 0) {
		w.Min.X = r.Max.X
	}
	if s.isSettled(r, 1, 0) {
		w.Max.X = r.Min.X
	}
	if s.isSettled(r, 0, -1) {
		w.Min.Z = r.Max.Z
	}
	if s.isSettled(r, 0, 1) {
		w.Max.Z = r.Min.Z
	}
	clean := true
	for cx := w.Min.X; cx <= w.Max.X; cx++ {
		for cz := w.Min.Z; cz <= w.Max.Z; cz++ {
			cp := world.ChunkPos{X: cx, Z: cz}
			if s.cache.Status(cp) != tcache.Unknown {
				continue
			}
			clean = false
			if _, dup := s.seen.Get(cp); !dup {
				s.seen.Put(cp, struct{}{})
				s.batch = append(s.batch, cp)
			}
		}
	}
	return clean
}

// isSettled reports whether r moved by (dx, dz) chunks is settled.
func (s *Store) isSettled(r world.ChunkRect, dx, dz int) bool {
	r.Min.X, r.Max.X = r.Min.X+dx, r.Max.X+dx
	r.Min.Z, r.Max.Z = r.Min.Z+dz, r.Max.Z+dz
	_, ok := s.settled[r]
	return ok
}
