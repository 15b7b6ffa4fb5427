package tgen

import (
	"bytes"
	"testing"

	"servo/internal/world"
)

// reply is a distinct stand-in for the encoded reply of pos.
func reply(pos world.ChunkPos, version byte) []byte {
	return []byte{byte(pos.X), byte(pos.X >> 8), version}
}

// checkLog asserts the cache's invariant: the unconsumed part of the order
// log holds exactly the cached positions, each once.
func checkLog(t *testing.T, g *GenCache) {
	t.Helper()
	live := g.order[g.head:]
	if len(live) != g.data.Len() {
		t.Fatalf("order log holds %d live positions, cache %d", len(live), g.data.Len())
	}
	for _, pos := range live {
		if g.Lookup(pos) == nil {
			t.Fatalf("order log holds %v, which is not cached", pos)
		}
	}
}

// TestGenCacheEvictsInPublishOrder: at capacity the oldest position goes
// first; a position evicted and published again is cached anew and waits
// its full turn; republishing a cached position replaces its bytes and
// keeps its place; and the
// order log is compacted once its consumed prefix dominates, so it stays
// bounded however many positions pass through.
func TestGenCacheEvictsInPublishOrder(t *testing.T) {
	g := NewGenCache()
	at := func(x int) world.ChunkPos { return world.ChunkPos{X: x} }
	for x := 0; x < genCacheSize; x++ {
		g.Publish(at(x), reply(at(x), 1))
	}
	checkLog(t, g)
	for x := 0; x < genCacheSize; x++ {
		if !bytes.Equal(g.Lookup(at(x)), reply(at(x), 1)) {
			t.Fatalf("%v not cached below capacity", at(x))
		}
	}

	// One past capacity evicts the oldest, and only it.
	g.Publish(at(genCacheSize), reply(at(genCacheSize), 1))
	if g.Lookup(at(0)) != nil || g.Lookup(at(1)) == nil || g.Lookup(at(genCacheSize)) == nil {
		t.Fatal("publishing past capacity did not evict exactly the oldest position")
	}
	checkLog(t, g)

	// Republishing a cached position replaces its bytes and keeps its
	// place: it is still the oldest.
	g.Publish(at(1), reply(at(1), 2))
	if !bytes.Equal(g.Lookup(at(1)), reply(at(1), 2)) || g.data.Len() != genCacheSize {
		t.Fatal("republishing a cached position did not replace its bytes in place")
	}
	checkLog(t, g)

	// The evicted position comes back with new bytes, evicting the next
	// oldest, and is not evicted again before everything published ahead
	// of it is.
	g.Publish(at(0), reply(at(0), 2))
	if !bytes.Equal(g.Lookup(at(0)), reply(at(0), 2)) || g.Lookup(at(1)) != nil {
		t.Fatal("republishing an evicted position did not cache it in the oldest's place")
	}
	for x := genCacheSize + 1; x < 2*genCacheSize; x++ {
		g.Publish(at(x), reply(at(x), 1))
		checkLog(t, g)
	}
	if g.Lookup(at(0)) == nil {
		t.Fatal("a republished position was evicted before its turn")
	}
	g.Publish(at(2*genCacheSize), reply(at(2*genCacheSize), 1))
	if g.Lookup(at(0)) != nil {
		t.Fatal("a republished position outlived its turn")
	}

	// Past 64 consumed entries, the log is compacted once the consumed
	// prefix is at least half of it.
	compactions := 0
	for x := 2*genCacheSize + 1; x < 6*genCacheSize; x++ {
		head := g.head
		g.Publish(at(x), reply(at(x), 1))
		checkLog(t, g)
		if g.head < head {
			compactions++
			if head < 64 {
				t.Fatalf("compacted at a consumed prefix of %d entries", head)
			}
		}
		if len(g.order) > 2*genCacheSize+1 {
			t.Fatalf("order log grew to %d entries for %d cached", len(g.order), g.data.Len())
		}
	}
	if compactions == 0 {
		t.Fatal("the order log was never compacted")
	}
}
