package world

import "fmt"

// DefaultBandChunks is the default tile side (band width) in chunk
// columns (128 blocks): wide enough that bounded-area players rarely
// leave their tile, narrow enough that a handful of tiles cover the
// spawn neighbourhood of a small cluster.
const DefaultBandChunks = 8

// Region is the set of chunk columns one shard owns. It has two forms:
// OwnershipTable.View(i), shard i's live view of a cluster's table, and
// the zero value, which contains every chunk — what a bare mve.Server
// built outside any cluster owns.
type Region struct {
	// Index is the owning shard this region describes.
	Index int
	// Table is the live tile → shard assignment Contains consults, so a
	// migration or failover re-gates chunk persistence on every shard the
	// moment the table's epoch advances, without rebuilding servers. Nil
	// only in the zero value.
	Table *OwnershipTable
}

// Contains reports whether the region owns the chunk column.
func (r Region) Contains(cp ChunkPos) bool {
	if r.Table == nil {
		return true
	}
	return r.Table.ShardOf(cp) == r.Index
}

// All reports whether the region covers the whole grid (single shard).
func (r Region) All() bool {
	return r.Table == nil || r.Table.Shards() == 1
}

// String implements fmt.Stringer.
func (r Region) String() string {
	if r.All() {
		return "region(all)"
	}
	return fmt.Sprintf("region(%d/%d, %v)", r.Index, r.Table.Shards(), r.Table.Topology())
}
