// The ghost registry: read-only avatars replicated from neighbouring
// shards. A sharded server renders its own residents; without ghosts a
// player standing one block from a tile boundary cannot see an avatar
// two blocks away on the neighbouring shard. The cluster's visibility
// bus (internal/cluster) publishes border avatars here each replication
// tick; the server treats ghosts as display-only state — they take no
// actions, own no sessions, and never persist — but they do feed the
// pre-fetching store (scanTerrainDemand observes their positions), so
// the terrain around an approaching avatar is warm before its handoff
// lands.
//
// Ghosts are found by key, not by name: the cluster interns each player
// name to a small dense integer once, when a session under that name
// first joins, and every registry call passes it. A name keeps its key
// for the cluster's lifetime, so same-name sessions share one ghost per
// shard, as they did when the registry was a map by name. The registry
// is a slice indexed by key — one pointer per key up to the largest key
// this shard has mirrored, so it grows with the number of distinct names
// ever admitted, the same order as the player records the store keeps —
// plus the live ghosts in creation order, which is the order EachGhost,
// ExpireGhosts and the ghost ids follow.

package mve

import (
	"slices"

	"servo/internal/world"
)

// GhostAvatar is a read-only avatar mirrored from another shard.
type GhostAvatar struct {
	// ID is a per-server ghost identity, stable for the ghost's lifetime
	// and distinct from every PlayerID (rtserve reports ghosts under the
	// negated id).
	ID int64
	// Name is the cluster-wide player name the ghost mirrors.
	Name string
	// X, Z is the replicated avatar position.
	X, Z float64
	// Pinned marks a ghost that must survive staleness reaping: the
	// demoted double of a session whose handoff is crossing the storage
	// substrate and cannot refresh itself.
	Pinned bool
	// seq is the replication-scan sequence number of the last refresh.
	seq uint64
	// key is the name key the registry holds the ghost under.
	key int
}

// Pos returns the ghost's position as a block position.
func (g *GhostAvatar) Pos() world.BlockPos {
	return world.BlockPos{X: int(g.X), Z: int(g.Z)}
}

// UpsertGhost installs or refreshes the ghost under key, reporting
// whether it was newly created; name is what a new ghost mirrors. seq
// stamps the refresh for staleness reaping (ExpireGhosts).
func (s *Server) UpsertGhost(key int, name string, x, z float64, seq uint64) bool {
	if g := s.Ghost(key); g != nil {
		g.X, g.Z, g.seq = x, z, seq
		return false
	}
	if key >= len(s.ghosts) {
		s.ghosts = append(s.ghosts, make([]*GhostAvatar, key+1-len(s.ghosts))...)
	}
	s.nextGhost++
	g := &GhostAvatar{ID: s.nextGhost, Name: name, X: x, Z: z, seq: seq, key: key}
	s.ghosts[key] = g
	s.ghostOrder = append(s.ghostOrder, g)
	return true
}

// PinGhost marks or unmarks the ghost under key as handoff-pinned;
// pinned ghosts are exempt from ExpireGhosts. A no-op for an absent key.
func (s *Server) PinGhost(key int, pinned bool) {
	if g := s.Ghost(key); g != nil {
		g.Pinned = pinned
	}
}

// RemoveGhost drops the ghost under key (e.g. because the session it
// mirrors was admitted here — the ghost promotes to a real avatar). It
// reports whether a ghost existed.
func (s *Server) RemoveGhost(key int) bool {
	g := s.Ghost(key)
	if g == nil {
		return false
	}
	s.ghosts[key] = nil
	i := slices.Index(s.ghostOrder, g)
	s.ghostOrder = slices.Delete(s.ghostOrder, i, i+1)
	return true
}

// ExpireGhosts removes every unpinned ghost last refreshed before seq
// and returns their names in registry order (the deterministic expiry
// sequence the cluster logs).
func (s *Server) ExpireGhosts(before uint64) []string {
	var expired []string
	kept := s.ghostOrder[:0]
	for _, g := range s.ghostOrder {
		if !g.Pinned && g.seq < before {
			s.ghosts[g.key] = nil
			expired = append(expired, g.Name)
			continue
		}
		kept = append(kept, g)
	}
	// The freed tail would otherwise keep the expired ghosts reachable.
	clear(s.ghostOrder[len(kept):])
	s.ghostOrder = kept
	return expired
}

// Ghost returns the ghost under key, or nil.
func (s *Server) Ghost(key int) *GhostAvatar {
	if key < len(s.ghosts) {
		return s.ghosts[key]
	}
	return nil
}

// EachGhost visits the live ghosts in creation order without allocating
// (the per-tick path: rtserve folds ghosts into every state update).
// fn must not mutate the registry.
func (s *Server) EachGhost(fn func(*GhostAvatar)) {
	for _, g := range s.ghostOrder {
		fn(g)
	}
}

// GhostCount returns the number of live ghosts.
func (s *Server) GhostCount() int { return len(s.ghostOrder) }
