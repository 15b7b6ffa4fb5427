package rstore

import (
	"servo/internal/servo/tcache"
	"servo/internal/world"
)

// oracleObserver is ObserveAvatars as it stood before the settled set:
// list every chunk of every avatar's view rect, once, in order of first
// appearance, and let Prefetch find the ones worth fetching. The loop is
// moved here verbatim; it is the reference the differential test and the
// benchmark hold the product code against, and exists nowhere else.
type oracleObserver struct {
	cache *tcache.Cache
	seen  map[world.ChunkPos]bool
	batch []world.ChunkPos
}

func newOracle(cache *tcache.Cache) *oracleObserver {
	return &oracleObserver{cache: cache, seen: make(map[world.ChunkPos]bool)}
}

func (s *oracleObserver) ObserveAvatars(positions []world.BlockPos, radius int) {
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
