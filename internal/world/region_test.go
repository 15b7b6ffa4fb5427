package world

import "testing"

func TestRegionZeroValueOwnsEverything(t *testing.T) {
	r := Region{}
	for _, cp := range []ChunkPos{{0, 0}, {-1000, 3}, {999, -999}} {
		if !r.Contains(cp) {
			t.Errorf("zero region must contain %v", cp)
		}
	}
	if !r.All() {
		t.Error("zero region must report All()")
	}
}

// Static here means a fresh table's default assignment, before any
// migration: every chunk has exactly one owning view.
func TestStaticRegionsDisjointAndComplete(t *testing.T) {
	topos := []Topology{
		BandTopology{BandChunks: 4},
		GridTopology{TilesX: 3, TilesZ: 2, TileChunks: 4},
	}
	for _, topo := range topos {
		shards := 3
		table := NewOwnershipTable(shards, topo)
		for x := -40; x <= 40; x += 3 {
			for z := -40; z <= 40; z += 3 {
				cp := ChunkPos{X: x, Z: z}
				owners := 0
				for i := 0; i < shards; i++ {
					if table.View(i).Contains(cp) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("%v: chunk %v owned by %d shards, want exactly 1", topo, cp, owners)
				}
			}
		}
	}
}

func TestBandRegionIgnoresZ(t *testing.T) {
	topo := BandTopology{BandChunks: 8}
	r := NewOwnershipTable(4, topo).View(1)
	for z := -100; z <= 100; z += 50 {
		if !r.Contains(ChunkPos{X: 9, Z: z}) {
			t.Errorf("band region must own chunk (9,%d) regardless of Z", z)
		}
	}
}

func TestGridRegionSplitsZAxis(t *testing.T) {
	// The motivating case for the tile rekey: a column of chunks spread
	// along Z must NOT all land on one shard under a grid topology.
	topo := GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4}
	table := NewOwnershipTable(4, topo)
	owners := make(map[int]bool)
	for cz := 0; cz < 16; cz++ {
		cp := ChunkPos{X: 0, Z: cz}
		for i := 0; i < 4; i++ {
			if table.View(i).Contains(cp) {
				owners[i] = true
			}
		}
	}
	if len(owners) < 2 {
		t.Fatalf("a Z-axis chunk column maps to %d shard(s), want several", len(owners))
	}
}
