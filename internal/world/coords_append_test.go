package world

import (
	"testing"
)

func TestChunksWithinAppendMatchesChunksWithin(t *testing.T) {
	centers := []BlockPos{{}, {X: 8, Z: 8}, {X: -37, Z: 129}, {X: 15, Z: -16}}
	radii := []int{-1, 0, 1, 15, 16, 48, 100}
	var buf []ChunkPos
	for _, c := range centers {
		for _, r := range radii {
			want := ChunksWithin(c, r)
			buf = ChunksWithinAppend(buf[:0], c, r)
			if len(buf) != len(want) {
				t.Fatalf("ChunksWithinAppend(%v, %d): %d chunks, want %d", c, r, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("ChunksWithinAppend(%v, %d)[%d] = %v, want %v (order must match)", c, r, i, buf[i], want[i])
				}
			}
		}
	}
}

func TestChunkRectWithin(t *testing.T) {
	for _, c := range []BlockPos{{}, {X: 7, Z: -22}, {X: -129, Z: 300}} {
		for _, radius := range []int{0, 5, 16, 47, 128} {
			r := ChunkRectWithin(c, radius)
			chunks := ChunksWithin(c, radius)
			if r.Count() != len(chunks) {
				t.Fatalf("rect(%v, %d).Count() = %d, want %d", c, radius, r.Count(), len(chunks))
			}
			for _, cp := range chunks {
				if !r.Contains(cp) {
					t.Fatalf("rect(%v, %d) misses %v", c, radius, cp)
				}
			}
			for _, out := range []ChunkPos{
				{X: r.Min.X - 1, Z: r.Min.Z}, {X: r.Max.X + 1, Z: r.Max.Z},
				{X: r.Min.X, Z: r.Min.Z - 1}, {X: r.Max.X, Z: r.Max.Z + 1},
			} {
				if r.Contains(out) {
					t.Fatalf("rect(%v, %d) wrongly contains %v", c, radius, out)
				}
			}
		}
	}
	if got := ChunkRectWithin(BlockPos{}, -1).Count(); got != 0 {
		t.Fatalf("negative radius rect holds %d chunks, want 0", got)
	}
}

func TestBordersWithinAppendReusesBuffer(t *testing.T) {
	// Held as the interface, as real callers do — converting the concrete
	// value per call would itself allocate.
	var topo Topology = GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4} // 64-block tiles
	pos := BlockPos{X: 63, Z: 63}                                         // tile corner: several foreign tiles in reach
	want := BordersWithinAppend(nil, topo, pos, 32)
	if len(want) == 0 {
		t.Fatal("corner position found no border neighbors")
	}
	buf := make([]BorderNeighbor, 0, 16)
	buf = BordersWithinAppend(buf[:0], topo, pos, 32)
	if len(buf) != len(want) {
		t.Fatalf("append variant found %d neighbors, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("append variant [%d] = %+v, want %+v (order must match)", i, buf[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = BordersWithinAppend(buf[:0], topo, pos, 32)
	})
	if allocs != 0 {
		t.Fatalf("BordersWithinAppend with a warm buffer allocates %.1f/op, want 0", allocs)
	}
}
