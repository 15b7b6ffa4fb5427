// Tests for the far-chunk unload scan: its keep rule (anyWithin) against
// the brute-force all-players reference, the scan on a live server, its
// allocation contract, and the session order's backing array.

package mve

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/world"
)

// anyPlayerWithin is the brute-force keep rule anyWithin is held to: cp
// stays iff some position is within limit blocks of it.
func anyPlayerWithin(positions []world.BlockPos, cp world.ChunkPos, limit int) bool {
	for _, pos := range positions {
		if cp.DistanceBlocks(pos) <= limit {
			return true
		}
	}
	return false
}

// checkUnloadRule holds anyWithin, over positions sorted by X, to the
// reference for every chunk of chunks.
func checkUnloadRule(t *testing.T, positions []world.BlockPos, limit int, chunks []world.ChunkPos) {
	t.Helper()
	byX := slices.Clone(positions)
	slices.SortFunc(byX, func(a, b world.BlockPos) int { return cmp.Compare(a.X, b.X) })
	for _, cp := range chunks {
		if got, want := anyWithin(byX, cp, limit), anyPlayerWithin(positions, cp, limit); got != want {
			t.Fatalf("chunk %v, limit %d, players %v: anyWithin = %v, all-players reference = %v",
				cp, limit, positions, got, want)
		}
	}
}

// edgeCoord returns a coordinate at, or one block past, limit blocks from
// either edge of the chunk whose low edge is at lo.
func edgeCoord(r *rand.Rand, lo, limit int) int {
	switch r.Intn(5) {
	case 0:
		return lo - limit
	case 1:
		return lo - limit - 1
	case 2:
		return lo + world.ChunkSizeX - 1 + limit
	case 3:
		return lo + world.ChunkSizeX + limit
	}
	return lo + r.Intn(world.ChunkSizeX)
}

// TestUnloadMatchesAllPlayers: 2 000 random fleets, each tested against
// the chunks around a target chunk. The fleets mix negative coordinates,
// positions exactly limit and limit+1 blocks from the target's edges,
// duplicate positions, single players and whole fleets in one X column
// (every position in the chunk's X band, the band's worst case).
func TestUnloadMatchesAllPlayers(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 2000; trial++ {
		limit := r.Intn(200)
		target := world.ChunkPos{X: r.Intn(61) - 30, Z: r.Intn(61) - 30}
		ox, oz := target.X*world.ChunkSizeX, target.Z*world.ChunkSizeZ
		n := 1 + r.Intn(40)
		if trial%7 == 0 {
			n = 1
		}
		column := r.Intn(1000) - 500
		positions := make([]world.BlockPos, 0, n)
		for len(positions) < n {
			var pos world.BlockPos
			switch trial % 4 {
			case 0: // anywhere around the origin, negative coordinates included
				pos = world.BlockPos{X: r.Intn(1001) - 500, Z: r.Intn(1001) - 500}
			case 1: // on the target's keep boundary, or one block past it
				pos = world.BlockPos{X: edgeCoord(r, ox, limit), Z: edgeCoord(r, oz, limit)}
			case 2: // duplicates of a few boundary positions
				if len(positions) > 0 && r.Intn(2) == 0 {
					pos = positions[r.Intn(len(positions))]
				} else {
					pos = world.BlockPos{X: edgeCoord(r, ox, limit), Z: edgeCoord(r, oz, limit)}
				}
			case 3: // one X column
				pos = world.BlockPos{X: column, Z: r.Intn(1001) - 500}
			}
			positions = append(positions, pos)
		}
		if trial%4 == 3 {
			target.X = world.BlockPos{X: column}.Chunk().X
		}
		chunks := world.ChunksWithinAppend(nil, target.Origin(), 3*world.ChunkSizeX)
		checkUnloadRule(t, positions, limit, chunks)
	}
}

// unloadCase decodes fuzz input: byte 0 is the limit, then every four
// bytes a position (little-endian int16 X and Z), at most 16 of them.
func unloadCase(data []byte) (positions []world.BlockPos, limit int) {
	if len(data) == 0 {
		return nil, 0
	}
	limit, data = int(data[0]), data[1:]
	for ; len(data) >= 4 && len(positions) < 16; data = data[4:] {
		positions = append(positions, world.BlockPos{
			X: int(int16(binary.LittleEndian.Uint16(data))),
			Z: int(int16(binary.LittleEndian.Uint16(data[2:]))),
		})
	}
	return positions, limit
}

// FuzzUnloadFar holds the unload scan's keep rule to the all-players
// reference on every chunk within limit+16 blocks of any position (the
// kept chunks and the ring just outside them). Its seeds are the files
// under testdata/fuzz/FuzzUnloadFar, named for the case each one pins.
func FuzzUnloadFar(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		positions, limit := unloadCase(data)
		var chunks []world.ChunkPos
		for _, pos := range positions {
			chunks = world.ChunksWithinAppend(chunks, pos, limit+world.ChunkSizeX)
		}
		checkUnloadRule(t, positions, limit, chunks)
	})
}

// TestUnloadFarSplitFleet: two groups of players 10 000 blocks apart. One
// group jumps 20 000 blocks along Z, staying in the same X band, and the
// other shifts along X. The scan must write back and unload exactly the
// reference's far set, in (X, Z) order, halt exactly the constructs
// anchored there, and resume those same constructs when both groups return.
func TestUnloadFarSplitFleet(t *testing.T) {
	loop := sim.NewLoop(5)
	store := &recordingStore{}
	s := NewServer(loop, Config{WorldType: "flat", Seed: 5, ViewDistance: 48, Store: store})
	limit := s.cfg.ViewDistance + unloadMargin
	home := map[*Player][2]float64{}
	for i, off := range [][2]float64{{0, 0}, {20, -30}, {-25, 10}} {
		for g, base := range [][2]float64{{0, 0}, {10000, 10000}} {
			p := s.ConnectAt(fmt.Sprintf("g%d-%d", g, i), nil, base[0]+off[0], base[1]+off[1])
			home[p] = [2]float64{p.X, p.Z}
		}
	}
	s.Start()
	runFor(loop, 20*time.Second)
	anchors := []world.BlockPos{{X: -70, Y: 5, Z: -10}, {X: 60, Y: 5, Z: 0}, {X: 10003, Y: 5, Z: 10003}, {X: 9990, Y: 5, Z: 10020}}
	constructs := make([]*sc.Construct, len(anchors))
	for i, a := range anchors {
		if !s.World().Loaded(a.Chunk()) {
			t.Fatalf("anchor %v not loaded after warm-up", a)
		}
		constructs[i] = sc.NewClock(3, 1)
		s.SpawnConstruct(constructs[i], a)
	}

	var positions []world.BlockPos
	for _, p := range s.playerOrder {
		if p.X < 5000 {
			placeAt(p, p.X+130, p.Z)
		} else {
			placeAt(p, p.X, p.Z-20000)
		}
		positions = append(positions, p.Pos())
	}
	before := s.World().LoadedChunks()
	var want []world.ChunkPos
	for _, cp := range before {
		if !anyPlayerWithin(positions, cp, limit) {
			want = append(want, cp)
		}
	}
	slices.SortFunc(want, func(a, b world.ChunkPos) int { return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Z, b.Z)) })
	wantHalted := map[*sc.Construct]bool{}
	for i, a := range anchors {
		if slices.Contains(want, a.Chunk()) {
			wantHalted[constructs[i]] = true
		}
	}
	if len(want) == 0 || len(want) == len(before) || len(wantHalted) != 3 {
		t.Fatalf("fixture: %d of %d chunks far, %d constructs there; want some kept, some far, 3 halted",
			len(want), len(before), len(wantHalted))
	}

	store.stored = nil
	s.unloadFarChunks()
	s.flushFn()
	if !slices.Equal(store.stored, want) {
		i := 0
		for i < min(len(store.stored), len(want)) && store.stored[i] == want[i] {
			i++
		}
		t.Fatalf("unload wrote back %d chunks, the reference's far set in (X, Z) order has %d; they differ from write %d",
			len(store.stored), len(want), i)
	}
	if got := s.World().LoadedCount(); got != len(before)-len(want) {
		t.Fatalf("%d chunks loaded after the scan, want %d", got, len(before)-len(want))
	}
	halted := map[*sc.Construct]bool{}
	for _, hs := range s.halted {
		for _, h := range hs {
			halted[h.construct] = true
		}
	}
	if len(halted) != len(wantHalted) || s.SCs().Count() != len(anchors)-len(wantHalted) {
		t.Fatalf("halted %d constructs (%d live), want %d", len(halted), s.SCs().Count(), len(wantHalted))
	}
	for c := range wantHalted {
		if !halted[c] {
			t.Fatal("a construct anchored in a far chunk was not halted")
		}
	}

	resumed := s.ConstructsResumed.Value()
	for p, at := range home {
		placeAt(p, at[0], at[1])
	}
	runFor(loop, 20*time.Second)
	if got := s.ConstructsResumed.Value() - resumed; got != int64(len(wantHalted)) {
		t.Fatalf("%d constructs resumed, want %d", got, len(wantHalted))
	}
	for i, c := range constructs {
		if p, _ := s.owner(anchors[i]); p == nil || p.construct != c {
			t.Fatalf("construct at %v is not live at its anchor after the return", anchors[i])
		}
	}
}

// TestUnloadScanZeroAlloc: 200 players at rest on town's posts (±100
// blocks of spawn, default view distance) over a settled flat world of
// 800+ chunks, none of them far: the unload scan allocates nothing — the
// sorted position slice and the loaded-chunk list are reused.
func TestUnloadScanZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(9)
	s := NewServer(loop, Config{WorldType: "flat"})
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		s.ConnectAt(fmt.Sprintf("p%d", i), nil, float64(r.Intn(201)-100), float64(r.Intn(201)-100))
	}
	s.Start()
	runFor(loop, 30*time.Second)
	loaded := s.World().LoadedCount()
	if loaded < 800 {
		t.Fatalf("%d chunks loaded, want 800+", loaded)
	}
	if got := testing.AllocsPerRun(100, s.unloadFarChunks); got != 0 {
		t.Fatalf("settled unload scan: %v allocs per scan, want 0", got)
	}
	if got := s.World().LoadedCount(); got != loaded {
		t.Fatalf("the scan unloaded %d chunks of a settled town", loaded-got)
	}
}

// TestRemovedSessionsAreNotRetained: a disconnected or evicted session
// leaves no pointer in the vacated tail of the join-order slice.
func TestRemovedSessionsAreNotRetained(t *testing.T) {
	_, s := newFlatServer(1)
	for i := 0; i < 5; i++ {
		s.ConnectAt(fmt.Sprintf("p%d", i), nil, float64(i), 0)
	}
	tailIsClear := func(step string) {
		t.Helper()
		for i, p := range s.playerOrder[len(s.playerOrder):cap(s.playerOrder)] {
			if p != nil {
				t.Fatalf("after %s: tail slot %d still holds %s", step, len(s.playerOrder)+i, p.Name)
			}
		}
	}
	s.Disconnect(s.playerOrder[1].ID)
	tailIsClear("disconnect")
	if _, ok := s.EvictPlayer(s.playerOrder[0].ID); !ok {
		t.Fatal("evict failed")
	}
	tailIsClear("evict")
	s.Disconnect(s.playerOrder[len(s.playerOrder)-1].ID)
	tailIsClear("disconnect of the last")
	var names []string
	for _, p := range s.Players() {
		names = append(names, p.Name)
	}
	if want := []string{"p2", "p3"}; !slices.Equal(names, want) {
		t.Fatalf("players left %v, want %v in join order", names, want)
	}
}
