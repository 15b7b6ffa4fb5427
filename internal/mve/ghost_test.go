package mve

import (
	"fmt"
	"math/rand"
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
	const a, b, c, d, e, f = 0, 1, 2, 3, 4, 5
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if !s.UpsertGhost(i, name, float64(i), 0, 1) {
			t.Fatalf("UpsertGhost(%q) did not create", name)
		}
	}
	if s.UpsertGhost(c, "c", 9, 9, 3) {
		t.Fatal("refreshing c created a second ghost")
	}
	if !s.RemoveGhost(b) || s.RemoveGhost(b) {
		t.Fatal("RemoveGhost(b) did not report exactly one removal")
	}
	if got, want := ghostNames(s), []string{"a", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("order after removing b = %v, want %v", got, want)
	}
	s.PinGhost(a, true)
	s.UpsertGhost(f, "f", 0, 0, 3)
	if got, want := s.ExpireGhosts(2), []string{"d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("ExpireGhosts(2) = %v, want %v (stale, unpinned, in registry order)", got, want)
	}
	if got, want := ghostNames(s), []string{"a", "c", "f"}; !slices.Equal(got, want) {
		t.Fatalf("order after expiry = %v, want %v", got, want)
	}
	if s.GhostCount() != 3 || s.Ghost(d) != nil || s.Ghost(e) != nil || s.Ghost(c).X != 9 {
		t.Fatalf("registry disagrees with its order: count %d", s.GhostCount())
	}
	for _, g := range s.ghostOrder[len(s.ghostOrder):cap(s.ghostOrder)] {
		if g != nil {
			t.Fatalf("ghost %q left the registry but stays reachable from its order", g.Name)
		}
	}
}

// refRegistry is the ghost registry as it was when ghosts were found by
// name: a map by name plus the creation order. FuzzGhostRegistry holds
// the keyed registry to it.
type refRegistry struct {
	ghosts map[string]*GhostAvatar
	order  []*GhostAvatar
	next   int64
}

func (r *refRegistry) upsert(name string, x, z float64, seq uint64) bool {
	if g, ok := r.ghosts[name]; ok {
		g.X, g.Z, g.seq = x, z, seq
		return false
	}
	r.next++
	g := &GhostAvatar{ID: r.next, Name: name, X: x, Z: z, seq: seq}
	r.ghosts[name] = g
	r.order = append(r.order, g)
	return true
}

func (r *refRegistry) pin(name string, pinned bool) {
	if g, ok := r.ghosts[name]; ok {
		g.Pinned = pinned
	}
}

func (r *refRegistry) remove(name string) bool {
	g, ok := r.ghosts[name]
	if !ok {
		return false
	}
	delete(r.ghosts, name)
	i := slices.Index(r.order, g)
	r.order = slices.Delete(r.order, i, i+1)
	return true
}

func (r *refRegistry) expire(before uint64) []string {
	var expired []string
	kept := r.order[:0]
	for _, g := range r.order {
		if !g.Pinned && g.seq < before {
			delete(r.ghosts, g.Name)
			expired = append(expired, g.Name)
			continue
		}
		kept = append(kept, g)
	}
	r.order = kept
	return expired
}

// ghostLine is what a caller can see of a ghost.
func ghostLine(g *GhostAvatar) string {
	if g == nil {
		return "none"
	}
	return fmt.Sprintf("%d:%s(%v,%v) pinned=%t", g.ID, g.Name, g.X, g.Z, g.Pinned)
}

// ghostRegistryOps is the model check behind FuzzGhostRegistry. Every
// 4-byte group of data is one op on key k = data[1] (name "p<k>"):
// upsert at (int8 data[2], int8 data[3]) (kind 0),
// pin or unpin by data[2]&1 (kind 1), remove (kind 2), expire everything
// refreshed more than data[2]%4 scans ago (kind 3), or start the next
// scan (kind 4). The keyed registry and the by-name reference must agree
// on every return value, on the ghost under k, on GhostCount, and on the
// EachGhost order with every ghost's id, name, position and pin.
func ghostRegistryOps(t *testing.T, data []byte) {
	s := NewServer(sim.NewLoop(1), Config{WorldType: "flat"})
	ref := &refRegistry{ghosts: map[string]*GhostAvatar{}}
	seq := uint64(1)
	const maxOps = 512
	for op := 0; op < maxOps && len(data) >= 4; op, data = op+1, data[4:] {
		kind, key := data[0]%5, int(data[1])
		name := fmt.Sprintf("p%d", key)
		x, z := float64(int8(data[2])), float64(int8(data[3]))
		switch kind {
		case 0:
			if got, want := s.UpsertGhost(key, name, x, z, seq), ref.upsert(name, x, z, seq); got != want {
				t.Fatalf("op %d: UpsertGhost(%d) created=%v, reference %v", op, key, got, want)
			}
		case 1:
			s.PinGhost(key, data[2]&1 == 1)
			ref.pin(name, data[2]&1 == 1)
		case 2:
			if got, want := s.RemoveGhost(key), ref.remove(name); got != want {
				t.Fatalf("op %d: RemoveGhost(%d) = %v, reference %v", op, key, got, want)
			}
		case 3:
			before := seq - min(seq, uint64(data[2]%4))
			if got, want := s.ExpireGhosts(before), ref.expire(before); !slices.Equal(got, want) {
				t.Fatalf("op %d: ExpireGhosts(%d) = %v, reference %v", op, before, got, want)
			}
		case 4:
			seq++
		}
		if got, want := ghostLine(s.Ghost(key)), ghostLine(ref.ghosts[name]); got != want {
			t.Fatalf("op %d (kind %d): Ghost(%d) = %s, reference %s", op, kind, key, got, want)
		}
		if got, want := s.GhostCount(), len(ref.order); got != want {
			t.Fatalf("op %d (kind %d): GhostCount = %d, reference %d", op, kind, got, want)
		}
		i := 0
		s.EachGhost(func(g *GhostAvatar) {
			if i >= len(ref.order) || ghostLine(g) != ghostLine(ref.order[i]) {
				t.Fatalf("op %d (kind %d): ghost %d in order is %s, reference order %d long", op, kind, i, ghostLine(g), len(ref.order))
			}
			i++
		})
		if i != len(ref.order) {
			t.Fatalf("op %d (kind %d): EachGhost visited %d ghosts, reference %d", op, kind, i, len(ref.order))
		}
	}
}

// FuzzGhostRegistry is the model check of the keyed ghost registry; see
// ghostRegistryOps. Its seeds are the files under
// testdata/fuzz/FuzzGhostRegistry, named for what each sequence
// exercises; go test runs them in tier-1.
func FuzzGhostRegistry(f *testing.F) {
	f.Fuzz(ghostRegistryOps)
}

// TestGhostRegistryOpsRandom drives ghostRegistryOps with random
// sequences over few keys, so that ops keep meeting live ghosts.
func TestGhostRegistryOpsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		data := make([]byte, 4*200)
		r.Read(data)
		for j := 1; j < len(data); j += 4 {
			data[j] %= 12
		}
		ghostRegistryOps(t, data)
	}
}
