package world

import "testing"

// nearestBorder is the distance from pos to the nearest foreign tile within
// margin, or margin+1 when none is in reach.
func nearestBorder(topo Topology, pos BlockPos, margin int) int {
	best := margin + 1
	for _, bn := range BordersWithinAppend(nil, topo, pos, margin) {
		best = min(best, bn.Dist)
	}
	return best
}

func TestBorderDistanceBands(t *testing.T) {
	topo := BandTopology{BandChunks: 4} // 64-block bands
	cases := []struct {
		x, z   int
		margin int
		want   int
	}{
		{32, 0, 64, 32}, // mid-band: 32 blocks to the x=64 border block
		{63, 0, 64, 1},  // flush against the border: the foreign block is adjacent
		{64, 0, 64, 1},  // just across: band 0 is one block west
		{0, 0, 64, 1},   // western edge of band 0
		{32, 500, 64, 32} /* bands are unbounded in Z */}
	for _, c := range cases {
		got := nearestBorder(topo, BlockPos{X: c.x, Z: c.z}, c.margin)
		if got != c.want {
			t.Errorf("nearest border(band, x=%d z=%d, %d) = %d, want %d", c.x, c.z, c.margin, got, c.want)
		}
	}
	// Out of reach: capped at margin+1.
	if got := nearestBorder(topo, BlockPos{X: 32, Z: 0}, 16); got != 17 {
		t.Fatalf("capped distance = %d, want 17", got)
	}
}

func TestBordersWithinMatchesNeighbors(t *testing.T) {
	// With the margin at most one tile side, every tile BordersWithin
	// reports is the home tile's 4-neighbour or a neighbour of a
	// neighbour (a diagonal corner) — the Topology.Neighbors ring border
	// replication serves in the common configuration.
	topos := []Topology{
		BandTopology{BandChunks: 4},
		GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4},
		GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 8},
	}
	for _, topo := range topos {
		for _, pos := range []BlockPos{{X: 1, Z: 1}, {X: 63, Z: 63}, {X: 100, Z: -5}, {X: -70, Z: 130}} {
			home := topo.TileOf(pos.Chunk())
			reach := make(map[TileID]bool)
			for _, n := range topo.Neighbors(home) {
				reach[n] = true
				for _, nn := range topo.Neighbors(n) {
					reach[nn] = true
				}
			}
			for _, bn := range BordersWithinAppend(nil, topo, pos, 64) {
				if bn.Tile == home {
					t.Fatalf("%v: home tile reported as its own border", topo)
				}
				if !reach[bn.Tile] {
					t.Fatalf("%v pos %v: border tile %v not within two Neighbors hops of %v", topo, pos, bn.Tile, home)
				}
				if bn.Dist < 1 || bn.Dist > 64 {
					t.Fatalf("%v pos %v: border distance %d out of range", topo, pos, bn.Dist)
				}
			}
		}
	}
}

func TestBordersWithinGridCorner(t *testing.T) {
	topo := GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4} // 64-block tiles
	// One block inside tile (0,0)'s north-west... south-east corner at
	// (63, 63): all of east (1,0), south (0,1), and the diagonal (1,1)
	// are 1 block away.
	got := BordersWithinAppend(nil, topo, BlockPos{X: 63, Z: 63}, 32)
	want := map[TileID]int{{X: 1, Z: 0}: 1, {X: 0, Z: 1}: 1, {X: 1, Z: 1}: 1}
	if len(got) != len(want) {
		t.Fatalf("corner borders = %v, want tiles %v", got, want)
	}
	for _, bn := range got {
		if d, ok := want[bn.Tile]; !ok || d != bn.Dist {
			t.Fatalf("corner borders = %v, want %v", got, want)
		}
	}
	// Mid-tile with a small margin: nothing in reach.
	if got := BordersWithinAppend(nil, topo, BlockPos{X: 32, Z: 32}, 8); len(got) != 0 {
		t.Fatalf("mid-tile borders = %v, want none", got)
	}
}

func TestBordersWithinOneWideAxisFolds(t *testing.T) {
	// On a 2x1 grid the east and west neighbours are the same tile: the
	// fold must dedupe to one entry at the minimum distance.
	topo := GridTopology{TilesX: 2, TilesZ: 1, TileChunks: 4}
	got := BordersWithinAppend(nil, topo, BlockPos{X: 10, Z: 8}, 64)
	if len(got) != 1 || got[0].Tile != (TileID{X: 1}) {
		t.Fatalf("folded borders = %v, want just tile(1,0)", got)
	}
	if got[0].Dist != 11 { // 10 blocks to x=-1 (the wrapped copy) → dist 11; east edge is 54 away
		t.Fatalf("folded distance = %d, want 11", got[0].Dist)
	}
	// A 1x1 grid has no borders at all.
	if got := BordersWithinAppend(nil, GridTopology{TilesX: 1, TilesZ: 1}, BlockPos{}, 1000); len(got) != 0 {
		t.Fatalf("1x1 grid borders = %v, want none", got)
	}
}

func TestBordersWithinSpansMultipleRings(t *testing.T) {
	// A margin wider than the tile side must reach past the immediate
	// neighbour ring: with 16-block tiles (tile_chunks 1) on an 8x8 grid
	// and a 64-block margin, an avatar mid-tile sees four full rings of
	// foreign tiles — an avatar standing 40 blocks away, two tiles over,
	// must be reported or cross-shard visibility would silently stop one
	// ring out.
	topo := GridTopology{TilesX: 8, TilesZ: 8, TileChunks: 1}
	pos := BlockPos{X: 8, Z: 8} // center of tile (0,0)
	got := BordersWithinAppend(nil, topo, pos, 64)
	byTile := make(map[TileID]int)
	for _, bn := range got {
		byTile[bn.Tile] = bn.Dist
	}
	// Tile (3,0) starts at x=48: nearest block 40 blocks east.
	if d, ok := byTile[TileID{X: 3}]; !ok || d != 40 {
		t.Fatalf("ring-3 tile (3,0) = (%d, %v), want distance 40 reported", d, ok)
	}
	// Ring 2 diagonal.
	if _, ok := byTile[TileID{X: 2, Z: 2}]; !ok {
		t.Fatalf("ring-2 diagonal tile (2,2) missing: %v", got)
	}
	// The margin square [-56, 72]^2 clips tiles -4..4 per axis → the full
	// wrapped 8x8 ring structure minus home; no tile may be missed.
	if len(got) < 24 {
		t.Fatalf("only %d tiles reported for a 4-ring margin", len(got))
	}
}
