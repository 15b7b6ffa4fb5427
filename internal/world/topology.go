// Region topology: how the infinite chunk grid is cut into ownership
// tiles. PR 2/3 hard-coded one topology — contiguous bands along the X
// axis — which cannot split a player crowd spread along Z: the whole
// column lands in one band, on one shard, and the controller has nothing
// useful to migrate. Topology generalises the cut. A tile is the unit of
// ownership (and of controller migration); BandTopology reproduces the
// 1-D X bands exactly (the compatibility default), and GridTopology cuts
// chunk space into TilesX×TilesZ rectangular tiles that repeat
// periodically across the plane, so load can be split along both axes.

package world

import "fmt"

// TileID identifies one ownership tile. Under a BandTopology, tile
// (b, 0) is region band b from PR 2/3; under a GridTopology, (X, Z) are
// the tile's grid coordinates in [0, TilesX) × [0, TilesZ).
type TileID struct {
	X, Z int
}

// String implements fmt.Stringer.
func (t TileID) String() string { return fmt.Sprintf("tile(%d,%d)", t.X, t.Z) }

// Topology maps the chunk grid onto ownership tiles. Implementations
// must be pure value types (comparable, no internal state): the same
// topology value always produces the same tiling, which is what keeps
// ownership decisions replayable.
type Topology interface {
	// TileOf returns the tile containing the chunk column.
	TileOf(cp ChunkPos) TileID
	// Tiles returns the number of distinct tiles the topology cuts chunk
	// space into, or 0 when the tiling is unbounded (bands).
	Tiles() int
	// Neighbors returns the tiles adjacent to t, in deterministic order.
	Neighbors(t TileID) []TileID
	// Index linearises a tile for deterministic ordering and default
	// ownership. Finite topologies use a space-filling order: consecutive
	// indices are Neighbors, so contiguous index runs make contiguous
	// shard territories.
	Index(t TileID) int
	// TileAt is the inverse of Index.
	TileAt(index int) TileID
	// Center returns the block position at the center of the tile's
	// canonical rectangle (tile-targeted fleet placement).
	Center(t TileID) BlockPos
	// Spec returns the serialisable geometry, used for ownership-table
	// persistence and restart-compatibility checks.
	Spec() TopologySpec
}

// TopologySpec is the serialisable geometry of a Topology.
type TopologySpec struct {
	// Kind is "band" or "grid".
	Kind string
	// TileChunks is the tile side (band width) in chunk columns
	// (0 → DefaultBandChunks).
	TileChunks int
	// TilesX and TilesZ are the grid dimensions (grid kind only).
	TilesX, TilesZ int
}

// Build constructs the topology the spec describes.
func (s TopologySpec) Build() (Topology, error) {
	switch s.Kind {
	case "", "band":
		return BandTopology{BandChunks: s.TileChunks}, nil
	case "grid":
		if s.TilesX < 1 || s.TilesZ < 1 {
			return nil, fmt.Errorf("world: grid topology needs TilesX/TilesZ >= 1 (got %dx%d)", s.TilesX, s.TilesZ)
		}
		return GridTopology{TilesX: s.TilesX, TilesZ: s.TilesZ, TileChunks: s.TileChunks}, nil
	}
	return nil, fmt.Errorf("world: unknown topology kind %q", s.Kind)
}

// BandTopology is the PR 2/3 tiling: contiguous bands of BandChunks
// chunk columns along the X axis, unbounded in both directions. Tile
// (b, 0) is band b; the Z coordinate is always 0.
type BandTopology struct {
	// BandChunks is the band width in chunk columns
	// (0 → DefaultBandChunks).
	BandChunks int
}

var _ Topology = BandTopology{}

// bandChunks returns the effective band width.
func (b BandTopology) bandChunks() int {
	if b.BandChunks < 1 {
		return DefaultBandChunks
	}
	return b.BandChunks
}

// TileOf implements Topology.
func (b BandTopology) TileOf(cp ChunkPos) TileID {
	return TileID{X: floorDiv(cp.X, b.bandChunks())}
}

// Tiles implements Topology: bands are unbounded.
func (b BandTopology) Tiles() int { return 0 }

// Neighbors implements Topology: the two adjacent bands.
func (b BandTopology) Neighbors(t TileID) []TileID {
	return []TileID{{X: t.X - 1}, {X: t.X + 1}}
}

// Index implements Topology: the band number.
func (b BandTopology) Index(t TileID) int { return t.X }

// TileAt implements Topology.
func (b BandTopology) TileAt(index int) TileID { return TileID{X: index} }

// Center implements Topology: the block at the center of the band, on
// the Z axis — exactly PR 3's BandCenter, so band-targeted placement in
// existing scenarios lands players on the same blocks.
func (b BandTopology) Center(t TileID) BlockPos {
	w := b.bandChunks() * ChunkSizeX
	return BlockPos{X: t.X*w + w/2, Y: 0, Z: 0}
}

// Spec implements Topology.
func (b BandTopology) Spec() TopologySpec {
	return TopologySpec{Kind: "band", TileChunks: b.bandChunks()}
}

// String implements fmt.Stringer.
func (b BandTopology) String() string { return fmt.Sprintf("band/%d", b.bandChunks()) }

// GridTopology cuts chunk space into TilesX×TilesZ rectangular tiles of
// TileChunks×TileChunks chunk columns. The finite tile grid repeats
// periodically across the infinite plane (a torus: chunk coordinates
// wrap modulo the grid span), so every chunk maps to one of
// TilesX*TilesZ tiles and ownership state stays bounded however far
// players roam. Index runs through the tiles in boustrophedon
// (serpentine) order — left-to-right on even rows, right-to-left on odd
// ones — so consecutive indices are always grid neighbours and a
// contiguous index run is a contiguous territory.
type GridTopology struct {
	// TilesX and TilesZ are the grid dimensions (values < 1 mean 1).
	TilesX, TilesZ int
	// TileChunks is the tile side in chunk columns
	// (0 → DefaultBandChunks).
	TileChunks int
}

var _ Topology = GridTopology{}

func (g GridTopology) tilesX() int {
	if g.TilesX < 1 {
		return 1
	}
	return g.TilesX
}

func (g GridTopology) tilesZ() int {
	if g.TilesZ < 1 {
		return 1
	}
	return g.TilesZ
}

func (g GridTopology) tileChunks() int {
	if g.TileChunks < 1 {
		return DefaultBandChunks
	}
	return g.TileChunks
}

// TileOf implements Topology.
func (g GridTopology) TileOf(cp ChunkPos) TileID {
	tc := g.tileChunks()
	return TileID{
		X: floorMod(floorDiv(cp.X, tc), g.tilesX()),
		Z: floorMod(floorDiv(cp.Z, tc), g.tilesZ()),
	}
}

// Tiles implements Topology.
func (g GridTopology) Tiles() int { return g.tilesX() * g.tilesZ() }

// Neighbors implements Topology: the 4-neighbourhood on the tile torus,
// deduplicated (a 1-wide axis folds both directions onto one tile) and
// in deterministic west/east/north/south order.
func (g GridTopology) Neighbors(t TileID) []TileID {
	tx, tz := g.tilesX(), g.tilesZ()
	cand := []TileID{
		{X: floorMod(t.X-1, tx), Z: t.Z},
		{X: floorMod(t.X+1, tx), Z: t.Z},
		{X: t.X, Z: floorMod(t.Z-1, tz)},
		{X: t.X, Z: floorMod(t.Z+1, tz)},
	}
	out := cand[:0]
	for _, n := range cand {
		if n == t {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// Index implements Topology: boustrophedon order over the tile grid.
func (g GridTopology) Index(t TileID) int {
	tx := g.tilesX()
	x, z := floorMod(t.X, tx), floorMod(t.Z, g.tilesZ())
	if z%2 == 1 {
		x = tx - 1 - x
	}
	return z*tx + x
}

// TileAt implements Topology.
func (g GridTopology) TileAt(index int) TileID {
	tx := g.tilesX()
	index = floorMod(index, g.Tiles())
	z := index / tx
	x := index % tx
	if z%2 == 1 {
		x = tx - 1 - x
	}
	return TileID{X: x, Z: z}
}

// Center implements Topology: the center of the tile's canonical
// rectangle (the instance whose grid coordinates are taken without
// wrapping, covering blocks [X*side, (X+1)*side) × [Z*side, (Z+1)*side)).
func (g GridTopology) Center(t TileID) BlockPos {
	side := g.tileChunks() * ChunkSizeX
	return BlockPos{
		X: floorMod(t.X, g.tilesX())*side + side/2,
		Y: 0,
		Z: floorMod(t.Z, g.tilesZ())*side + side/2,
	}
}

// Spec implements Topology.
func (g GridTopology) Spec() TopologySpec {
	return TopologySpec{Kind: "grid", TileChunks: g.tileChunks(), TilesX: g.tilesX(), TilesZ: g.tilesZ()}
}

// String implements fmt.Stringer.
func (g GridTopology) String() string {
	return fmt.Sprintf("grid/%dx%d/%d", g.tilesX(), g.tilesZ(), g.tileChunks())
}

// DefaultOwner returns the shard owning a tile before any override: the
// boot-time assignment. Unbounded topologies (bands) interleave —
// floorMod(index, shards), PR 2's round-robin, so every shard owns
// terrain near spawn. Finite topologies split the space-filling index
// range into contiguous runs, one per shard: with Index in serpentine
// order each shard's territory is a connected block of tiles.
func DefaultOwner(topo Topology, shards int, t TileID) int {
	if shards < 1 {
		shards = 1
	}
	n := topo.Tiles()
	if n == 0 {
		return floorMod(topo.Index(t), shards)
	}
	idx := floorMod(topo.Index(t), n)
	owner := idx * shards / n
	if owner >= shards {
		owner = shards - 1
	}
	return owner
}

// HomeTile returns a tile shard i owns by default, as central to its
// territory as the topology allows: the target of shard-aware fleet
// placement (Cluster.Home). For bands it is band i, preserving PR 2's
// home bands; for finite topologies it is the middle of the shard's
// contiguous index run.
func HomeTile(topo Topology, shards, i int) TileID {
	if shards < 1 {
		shards = 1
	}
	n := topo.Tiles()
	if n == 0 {
		return topo.TileAt(i)
	}
	first, last := -1, -1
	for idx := 0; idx < n; idx++ {
		if DefaultOwner(topo, shards, topo.TileAt(idx)) != i {
			continue
		}
		if first < 0 {
			first = idx
		}
		last = idx
	}
	if first < 0 {
		return topo.TileAt(0) // more shards than tiles: i owns nothing
	}
	return topo.TileAt((first + last) / 2)
}
