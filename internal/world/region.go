package world

import "fmt"

// DefaultBandChunks is the default tile side (band width) in chunk
// columns (128 blocks): wide enough that bounded-area players rarely
// leave their tile, narrow enough that a handful of tiles cover the
// spawn neighbourhood of a small cluster.
const DefaultBandChunks = 8

// Region is the set of chunk columns one shard owns under a topology.
// The zero value contains every chunk, which is what an unsharded
// server uses.
type Region struct {
	// Topo is the tiling; nil means the trivial one-tile topology.
	Topo Topology
	// Shards is the shard count the static assignment splits tiles over;
	// values < 2 make the region own everything (single shard).
	Shards int
	// Index is the owning shard this region describes.
	Index int
	// Table, when non-nil, makes ownership dynamic: Contains consults the
	// live tile → shard assignment instead of the static default, so a
	// migration or failover re-gates chunk persistence on every shard the
	// moment the table's epoch advances, without rebuilding servers.
	Table *OwnershipTable
}

// Contains reports whether the region owns the chunk column.
func (r Region) Contains(cp ChunkPos) bool {
	if r.Table != nil {
		return r.Table.ShardOf(cp) == r.Index
	}
	if r.Shards < 2 || r.Topo == nil {
		return r.Index == 0
	}
	return DefaultOwner(r.Topo, r.Shards, r.Topo.TileOf(cp)) == r.Index
}

// All reports whether the region covers the whole grid (single shard).
func (r Region) All() bool {
	if r.Table != nil {
		return r.Table.Shards() == 1
	}
	return r.Shards < 2 || r.Topo == nil
}

// String implements fmt.Stringer.
func (r Region) String() string {
	if r.All() {
		return "region(all)"
	}
	shards := r.Shards
	topo := r.Topo
	if r.Table != nil {
		shards = r.Table.Shards()
		topo = r.Table.Topology()
	}
	return fmt.Sprintf("region(%d/%d, %v)", r.Index, shards, topo)
}

// StaticRegion returns shard i's region under the topology's default
// assignment (no ownership table: boot-time sharding, frozen).
func StaticRegion(topo Topology, shards, i int) Region {
	return Region{Topo: topo, Shards: shards, Index: i}
}
