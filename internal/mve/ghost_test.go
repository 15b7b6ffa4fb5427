package mve

import (
	"slices"
	"testing"

	"servo/internal/sim"
)

// ghostNames lists the registry in EachGhost order.
func ghostNames(s *Server) []string {
	var names []string
	s.EachGhost(func(g *GhostAvatar) { names = append(names, g.Name) })
	return names
}

// TestGhostRegistryOrder: the registry keeps creation order through
// refreshes, removals and expiry; ExpireGhosts reports in that order and
// spares pinned ghosts; and a ghost that left the registry is no longer
// reachable from the order's backing array.
func TestGhostRegistryOrder(t *testing.T) {
	s := NewServer(sim.NewLoop(1), Config{WorldType: "flat"})
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if !s.UpsertGhost(name, float64(i), 0, 1, 1) {
			t.Fatalf("UpsertGhost(%q) did not create", name)
		}
	}
	if s.UpsertGhost("c", 9, 9, 2, 3) {
		t.Fatal("refreshing c created a second ghost")
	}
	if !s.RemoveGhost("b") || s.RemoveGhost("b") {
		t.Fatal("RemoveGhost(b) did not report exactly one removal")
	}
	if got, want := ghostNames(s), []string{"a", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("order after removing b = %v, want %v", got, want)
	}
	s.PinGhost("a", true)
	s.UpsertGhost("f", 0, 0, 1, 3)
	if got, want := s.ExpireGhosts(2), []string{"d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("ExpireGhosts(2) = %v, want %v (stale, unpinned, in registry order)", got, want)
	}
	if got, want := ghostNames(s), []string{"a", "c", "f"}; !slices.Equal(got, want) {
		t.Fatalf("order after expiry = %v, want %v", got, want)
	}
	if s.GhostCount() != 3 || s.Ghost("d") != nil || s.Ghost("c").X != 9 {
		t.Fatalf("registry disagrees with its order: count %d", s.GhostCount())
	}
	for _, g := range s.ghostOrder[len(s.ghostOrder):cap(s.ghostOrder)] {
		if g != nil {
			t.Fatalf("ghost %q left the registry but stays reachable from its order", g.Name)
		}
	}
}
