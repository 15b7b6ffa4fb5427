// Tile-border proximity: which foreign tiles an avatar standing at a
// block position can reach within a margin, and how far away each one
// is. This is the geometric half of cross-shard visibility — an
// avatar within view distance of a tile border can see terrain (and
// should see avatars) hosted by the border tile's owner, so the cluster
// replicates it there as a ghost. With the margin at most one tile side
// the reported tiles are exactly the home tile's Topology.Neighbors ring
// (plus the diagonal corners a view square can clip); a larger margin —
// or smaller tiles — reaches further rings, and every intersected tile
// is reported, so visibility never silently stops one ring out.

package world

// BorderNeighbor is one foreign tile within reach of a position.
type BorderNeighbor struct {
	Tile TileID
	// Dist is the Chebyshev distance in blocks from the position to the
	// nearest block of the tile (1 = standing flush against the border).
	Dist int
}

// BordersWithinAppend appends to dst every foreign tile whose territory
// comes within margin blocks (Chebyshev) of pos, nearest-block distance
// included, in first-seen order; callers that reuse dst across calls run
// the scan allocation-free. Tiles are unions of whole chunks, so the scan
// enumerates ChunksWithin(pos, margin) in its deterministic order, folding
// each tile to its minimum distance (a wrapping torus reaches the same tile
// from several sides) by linear search over the appended suffix — the
// foreign-tile set a view square clips is a handful of entries, far below
// map break-even. It never touches topology internals — any Topology
// works.
func BordersWithinAppend(dst []BorderNeighbor, topo Topology, pos BlockPos, margin int) []BorderNeighbor {
	if topo == nil || margin < 0 {
		return dst
	}
	home := topo.TileOf(pos.Chunk())
	base := len(dst)
	r := ChunkRectWithin(pos, margin)
	for cx := r.Min.X; cx <= r.Max.X; cx++ {
		for cz := r.Min.Z; cz <= r.Max.Z; cz++ {
			cp := ChunkPos{X: cx, Z: cz}
			t := topo.TileOf(cp)
			if t == home {
				continue
			}
			dist := cp.DistanceBlocks(pos)
			found := false
			for i := base; i < len(dst); i++ {
				if dst[i].Tile == t {
					if dist < dst[i].Dist {
						dst[i].Dist = dist
					}
					found = true
					break
				}
			}
			if !found {
				dst = append(dst, BorderNeighbor{Tile: t, Dist: dist})
			}
		}
	}
	return dst
}
