package mve

import (
	"iter"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"servo/internal/sc"
	"servo/internal/world"
)

// footprintOracle is construct ownership as a per-block map, the way the
// server kept it before ownership moved into per-construct bitmaps:
// spawning writes every non-empty cell's block (the last spawned wins), a
// break deletes the block's entry, and halting deletes the entries that
// still name the halted construct.
type footprintOracle map[world.BlockPos]haltedConstruct

// spawn returns how many blocks the construct took from another.
func (o footprintOracle) spawn(c *sc.Construct, anchor world.BlockPos) (taken int) {
	w, h := c.Size()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if c.At(x, y).Kind == sc.Empty {
				continue
			}
			pos := anchor.Offset(x, 0, y)
			if _, ok := o[pos]; ok {
				taken++
			}
			o[pos] = haltedConstruct{construct: c, anchor: anchor}
		}
	}
	return taken
}

func (o footprintOracle) halt(c *sc.Construct) {
	for pos, owner := range o {
		if owner.construct == c {
			delete(o, pos)
		}
	}
}

// agrees checks the server's owner of every block of the town's grid, one
// layer below and above it too, against the oracle.
func (o footprintOracle) agrees(t *testing.T, op int, s *Server) {
	t.Helper()
	for y := 4; y <= 6; y++ {
		for x := -104; x < 126; x++ {
			for z := -104; z < 126; z++ {
				pos := world.BlockPos{X: x, Y: y, Z: z}
				var got *sc.Construct
				if p, i := s.owner(pos); p != nil {
					got = p.construct
					if c, ok := p.cell(pos); !ok || c != i {
						t.Fatalf("op %d: owner of %v returned cell %d, its grid puts %d there", op, pos, i, c)
					}
				}
				if want := o[pos].construct; got != want {
					t.Fatalf("op %d: %v is owned by %p, the oracle says %p", op, pos, got, want)
				}
			}
		}
	}
}

// sortedKeys returns the chunk positions of m's entries in (X, Z) order.
func sortedKeys[V any](m iter.Seq2[world.ChunkPos, V]) []world.ChunkPos {
	var out []world.ChunkPos
	for cp := range m {
		out = append(out, cp)
	}
	slices.SortFunc(out, func(a, b world.ChunkPos) int {
		if a.X != b.X {
			return a.X - b.X
		}
		return a.Z - b.Z
	})
	return out
}

// TestFootprintMatchesOracle spawns the town benchmark's grid of 250-block
// constructs — 20 blocks apart, so neighbours overlap on 630 blocks — and
// then breaks, toggles, halts and resumes at random, holding the server's
// ownership to the map's after every operation. Breaking an owned block
// must empty the owner's cell.
func TestFootprintMatchesOracle(t *testing.T) {
	_, s := newFlatServer(1)
	player := s.ConnectAt("griefer", nil, 0, 0)
	o, overlaps := footprintOracle{}, 0
	for i := 0; i < 100; i++ {
		c, anchor := sc.BuildSized(250), world.BlockPos{X: (i%10)*20 - 100, Y: 5, Z: (i/10)*20 - 100}
		s.SpawnConstruct(c, anchor)
		overlaps += o.spawn(c, anchor)
	}
	if overlaps != 630 {
		t.Fatalf("the town's grids overlap on %d blocks, want 630", overlaps)
	}
	o.agrees(t, -1, s)
	r := rand.New(rand.NewSource(3))
	halts := 0
	for op := 0; op < 40; op++ {
		switch r.Intn(4) {
		case 0, 1:
			kind := ActionBreakBlock
			if r.Intn(3) == 0 {
				kind = ActionPlaceBlock
			}
			for n := 0; n < 50; n++ {
				pos := world.BlockPos{X: r.Intn(222) - 100, Y: 4 + r.Intn(3), Z: r.Intn(222) - 100}
				s.processAction(player, Action{Kind: kind, Pos: pos, Block: world.Block{ID: world.Stone}})
				owner, owned := o[pos]
				if kind != ActionBreakBlock || !owned {
					continue
				}
				delete(o, pos)
				if got := owner.construct.At(pos.X-owner.anchor.X, pos.Z-owner.anchor.Z); got.Kind != sc.Empty {
					t.Fatalf("op %d: breaking %v left its owner's cell %v", op, pos, got.Kind)
				}
			}
		case 2:
			cps := sortedKeys(s.placed.All())
			cp := cps[r.Intn(len(cps))]
			ps, _ := s.placed.Get(cp)
			for _, p := range ps {
				if p.anchor.Chunk() == cp {
					o.halt(p.construct)
					halts++
				}
			}
			s.haltConstructs(cp)
		case 3:
			if cps := sortedKeys(maps.All(s.halted)); len(cps) > 0 {
				cp := cps[r.Intn(len(cps))]
				for _, h := range s.halted[cp] {
					o.spawn(h.construct, h.anchor)
				}
				s.resumeConstructs(cp)
			}
		}
		o.agrees(t, op, s)
	}
	if halts == 0 || s.ConstructsResumed.Value() == 0 {
		t.Fatalf("the sequence halted %d constructs and resumed %d: widen it", halts, s.ConstructsResumed.Value())
	}
}

// TestHaltKeepsNeighbourFootprint: halting a construct frees only the
// blocks it owns. A wide clock is halted with a small live clock inside
// its grid's rectangle (anchored in a chunk that stays loaded); every
// block of the small clock must still be its own, so breaking one still
// reaches it and invalidates its speculation.
func TestHaltKeepsNeighbourFootprint(t *testing.T) {
	_, s := newFlatServer(1)
	player := s.ConnectAt("griefer", nil, 0, 0)
	wide := sc.NewClock(80, 2) // 240×3
	wideAnchor := world.BlockPos{X: 0, Y: 5, Z: 0}
	s.SpawnConstruct(wide, wideAnchor)
	small := sc.NewClock(1, 3) // 4×3
	smallAnchor := world.BlockPos{X: 100, Y: 5, Z: 0}
	smallID := s.SpawnConstruct(small, smallAnchor)
	if smallAnchor.Chunk() == wideAnchor.Chunk() {
		t.Fatal("the clocks must be anchored in different chunks")
	}
	s.haltConstructs(wideAnchor.Chunk())
	if s.SCs().Count() != 1 {
		t.Fatalf("%d constructs live after halting the wide clock, want 1", s.SCs().Count())
	}
	w, h := small.Size()
	blocks := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pos := smallAnchor.Offset(x, 0, y)
			p, _ := s.owner(pos)
			if small.At(x, y).Kind == sc.Empty {
				continue
			}
			blocks++
			if p == nil || p.id != smallID {
				t.Fatalf("the small clock's block %v lost its owner when the wide clock halted", pos)
			}
		}
	}
	before := small.BlockCount()
	s.processAction(player, Action{Kind: ActionBreakBlock, Pos: smallAnchor})
	if got := small.BlockCount(); got != before-1 || blocks != before {
		t.Fatalf("breaking the small clock's anchor block: %d → %d blocks (owned %d), want one removed", before, got, blocks)
	}
}

// TestConstructApplyAllocatesNothing: what a tick pays per construct on
// the speculative path allocates nothing — applying a buffered state
// (SetState), the state hash, the block count its modelled cost is read
// from — and neither does finding which construct owns an action's block,
// owned or not.
func TestConstructApplyAllocatesNothing(t *testing.T) {
	_, s := newFlatServer(1)
	c, anchor := sc.BuildSized(250), world.BlockPos{X: 4, Y: 5, Z: 4}
	s.SpawnConstruct(c, anchor)
	ahead := c.Clone()
	ahead.Step()
	next := ahead.State()
	free := anchor.Offset(0, 1, 0)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.SetState(next); err != nil {
			t.Fatal(err)
		}
		sink += c.Hash() + uint64(c.BlockCount())
		if p, _ := s.owner(anchor); p == nil {
			t.Fatal("the anchor block has no owner")
		}
		if p, _ := s.owner(free); p != nil {
			t.Fatal("the block above the anchor has an owner")
		}
	})
	if allocs != 0 {
		t.Fatalf("apply + hash + block count + footprint look-ups: %v allocs, want 0", allocs)
	}
	if c.Hash() != ahead.Hash() {
		t.Fatal("SetState did not apply the state")
	}
}
