// Dynamic region ownership: the control-plane state behind elastic
// sharding. A static topology assignment freezes tile → shard ownership
// into the split computed at boot; an OwnershipTable turns that
// assignment into runtime state — tile → owning shard, versioned by an
// epoch counter — so a cluster controller can migrate tiles between
// shards (live rebalancing) and reroute a failed shard's tiles to
// survivors (failover) without rebuilding servers. Shard regions hold a
// pointer to the shared table (Region.Table), so ownership-gated chunk
// persistence consults the live assignment on every lookup.

package world

import (
	"encoding/binary"
	"errors"
	"maps"
	"sort"
)

// OwnershipTable maps region tiles to owning shards at runtime. The
// default assignment is DefaultOwner over the topology (the band
// interleave, or a grid's contiguous space-filling runs); overrides
// record tiles migrated away from their default owner, and dead shards
// have their tiles rerouted deterministically across the survivors.
// Every ownership change bumps the epoch, so observers can detect that
// routing state moved underneath them.
//
// The table is not safe for concurrent use; the virtual clock serialises
// all access, like the rest of the simulation.
type OwnershipTable struct {
	topo   Topology
	shards int
	// base is the boot-time shard count, frozen at construction: the
	// default assignment always splits tiles over base shards, so growing
	// the table (autoscaling) never reshuffles defaults. Shards added by
	// Grow own nothing by default and gain tiles only through overrides.
	base  int
	epoch uint64
	// overrides are tiles migrated away from the default assignment.
	overrides ChunkMap[TileID, int]
	// dead marks shards whose loops were killed; their tiles reroute to
	// the surviving shards until they recover.
	dead map[int]bool
	// retired marks shards drained and removed by the autoscaler. Like
	// dead shards their tiles reroute to survivors, but retirement is
	// deliberate: a retired slot is only revived by Grow reusing it.
	retired map[int]bool
}

// NewOwnershipTable returns a table splitting topo over the given shard
// count with the default assignment, every shard alive, at epoch 0. A
// nil topo means the default band topology.
func NewOwnershipTable(shards int, topo Topology) *OwnershipTable {
	if shards < 1 {
		shards = 1
	}
	if topo == nil {
		topo = BandTopology{}
	}
	return &OwnershipTable{
		topo:    topo,
		shards:  shards,
		base:    shards,
		dead:    make(map[int]bool),
		retired: make(map[int]bool),
	}
}

// Clone returns a copy of the table that later changes to either leave
// the other alone: what a caller compares the table with after a change
// to learn which tiles moved.
func (t *OwnershipTable) Clone() *OwnershipTable {
	c := *t
	c.overrides = ChunkMap[TileID, int]{}
	for tile, o := range t.overrides.All() {
		c.overrides.Put(tile, o)
	}
	c.dead = maps.Clone(t.dead)
	c.retired = maps.Clone(t.retired)
	return &c
}

// Topology returns the table's static tiling; ownership itself lives in
// the table.
func (t *OwnershipTable) Topology() Topology { return t.topo }

// Shards returns the shard count, including dead and retired slots.
func (t *OwnershipTable) Shards() int { return t.shards }

// Base returns the boot-time shard count the default assignment splits
// tiles over; Grow never changes it.
func (t *OwnershipTable) Base() int { return t.base }

// Epoch returns the current ownership epoch: it increases on every
// migration, failover, and recovery.
func (t *OwnershipTable) Epoch() uint64 { return t.epoch }

// Canon returns the canonical spelling of a tile reference: the one
// TileOf produces. On a grid, out-of-range coordinates wrap onto the
// tile torus; on bands, the Z coordinate collapses to 0. Owner and
// SetOwner canonicalise through this, so a caller-supplied alias can
// never create a phantom override the routing lookups would miss.
func (t *OwnershipTable) Canon(tile TileID) TileID {
	return t.topo.TileAt(t.topo.Index(tile))
}

// TileOfBlock returns the tile containing the block position.
func (t *OwnershipTable) TileOfBlock(b BlockPos) TileID { return t.topo.TileOf(b.Chunk()) }

// Owner returns the shard currently owning the tile: the override if one
// exists, else the topology default — rerouted deterministically over
// the surviving shards when the assigned owner is dead, so every
// observer agrees on the reassignment without coordination.
func (t *OwnershipTable) Owner(tile TileID) int {
	tile = t.Canon(tile)
	o, ok := t.overrides.Get(tile)
	if !ok {
		o = DefaultOwner(t.topo, t.base, tile)
	}
	if t.dead[o] || t.retired[o] {
		alive := t.AliveShards()
		if len(alive) > 0 {
			o = alive[floorMod(t.topo.Index(tile), len(alive))]
		}
	}
	return o
}

// ShardOf returns the shard owning the chunk column.
func (t *OwnershipTable) ShardOf(cp ChunkPos) int { return t.Owner(t.topo.TileOf(cp)) }

// ShardOfBlock returns the shard owning the block position.
func (t *OwnershipTable) ShardOfBlock(b BlockPos) int { return t.ShardOf(b.Chunk()) }

// SetOwner migrates a tile to the given shard, bumping the epoch. It
// refuses dead or out-of-range targets and is a no-op (no epoch bump)
// when the tile's effective owner already is the target.
func (t *OwnershipTable) SetOwner(tile TileID, shard int) bool {
	tile = t.Canon(tile)
	if shard < 0 || shard >= t.shards || t.dead[shard] || t.retired[shard] {
		return false
	}
	if t.Owner(tile) == shard {
		return false
	}
	if DefaultOwner(t.topo, t.base, tile) == shard {
		// Back to its default owner: drop the override instead of pinning.
		t.overrides.Delete(tile)
	} else {
		t.overrides.Put(tile, shard)
	}
	t.epoch++
	return true
}

// SetDead marks a shard dead (its tiles reroute to survivors) or alive
// again (its tiles revert), bumping the epoch on any change. Killing the
// last alive shard is refused: ownership must always resolve somewhere.
func (t *OwnershipTable) SetDead(shard int, dead bool) bool {
	if shard < 0 || shard >= t.shards || t.dead[shard] == dead || t.retired[shard] {
		return false
	}
	if dead && len(t.AliveShards()) <= 1 {
		return false
	}
	if dead {
		t.dead[shard] = true
	} else {
		delete(t.dead, shard)
	}
	t.epoch++
	return true
}

// Grow admits one more shard slot and returns its index, bumping the
// epoch. A previously retired slot is reused (lowest index first) so a
// scale-down/scale-up cycle does not grow the table without bound;
// otherwise a fresh index is appended. Either way the new shard owns no
// tiles by default — the default assignment stays frozen over Base() —
// and gains territory only through SetOwner overrides.
func (t *OwnershipTable) Grow() int {
	for i := 0; i < t.shards; i++ {
		if t.retired[i] {
			delete(t.retired, i)
			t.epoch++
			return i
		}
	}
	idx := t.shards
	t.shards++
	t.epoch++
	return idx
}

// Retire marks a drained shard as removed: its tiles (there should be
// none left after a drain) reroute to survivors, SetOwner refuses it as
// a target, and its slot becomes reusable by Grow. Retiring a dead,
// out-of-range, or the last alive shard is refused.
func (t *OwnershipTable) Retire(shard int) bool {
	if shard < 0 || shard >= t.shards || t.dead[shard] || t.retired[shard] {
		return false
	}
	if len(t.AliveShards()) <= 1 {
		return false
	}
	t.retired[shard] = true
	t.epoch++
	return true
}

// Retired reports whether the shard slot was drained and removed.
func (t *OwnershipTable) Retired(shard int) bool { return t.retired[shard] }

// Alive reports whether the shard's loop is considered running: neither
// crashed (dead) nor drained away (retired).
func (t *OwnershipTable) Alive(shard int) bool { return !t.dead[shard] && !t.retired[shard] }

// AliveShards returns the alive shard indices in ascending order.
func (t *OwnershipTable) AliveShards() []int {
	out := make([]int, 0, t.shards)
	for i := 0; i < t.shards; i++ {
		if !t.dead[i] && !t.retired[i] {
			out = append(out, i)
		}
	}
	return out
}

// AliveCount returns the number of alive shards.
func (t *OwnershipTable) AliveCount() int { return len(t.AliveShards()) }

// TileOverride is one persisted deviation from the default assignment.
type TileOverride struct {
	Tile  TileID
	Owner int
}

// Overrides returns the migrated tiles in ascending (Z, X) order.
func (t *OwnershipTable) Overrides() []TileOverride {
	out := make([]TileOverride, 0, t.overrides.Len())
	for tile, o := range t.overrides.All() {
		out = append(out, TileOverride{Tile: tile, Owner: o})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tile.Z != out[j].Tile.Z {
			return out[i].Tile.Z < out[j].Tile.Z
		}
		return out[i].Tile.X < out[j].Tile.X
	})
	return out
}

// View returns shard i's region backed by this live table: Contains
// lookups follow every later migration and failover.
func (t *OwnershipTable) View(i int) Region {
	return Region{Index: i, Table: t}
}

// ownershipMagicV2 heads the encoding, versioning the layout.
const ownershipMagicV2 = uint32(0x53_56_4f_32) // "SVO2"

// topology kinds on the wire.
const (
	wireKindBand = uint32(0)
	wireKindGrid = uint32(1)
)

// Encode serialises the table (topology geometry, shard count, epoch,
// overrides) for blob-store persistence. Liveness is runtime state, not
// configuration, and is not encoded: a restarted cluster starts with
// every shard alive.
func (t *OwnershipTable) Encode() []byte {
	ov := t.Overrides()
	spec := t.topo.Spec()
	kind := wireKindBand
	if spec.Kind == "grid" {
		kind = wireKindGrid
	}
	out := make([]byte, 0, 36+12*len(ov))
	out = binary.LittleEndian.AppendUint32(out, ownershipMagicV2)
	out = binary.LittleEndian.AppendUint32(out, uint32(t.shards))
	out = binary.LittleEndian.AppendUint32(out, kind)
	out = binary.LittleEndian.AppendUint32(out, uint32(spec.TileChunks))
	out = binary.LittleEndian.AppendUint32(out, uint32(spec.TilesX))
	out = binary.LittleEndian.AppendUint32(out, uint32(spec.TilesZ))
	out = binary.LittleEndian.AppendUint64(out, t.epoch)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ov)))
	for _, e := range ov {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(e.Tile.X)))
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(e.Tile.Z)))
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(e.Owner)))
	}
	return out
}

// errBadOwnershipTable reports a corrupt persisted ownership table.
var errBadOwnershipTable = errors.New("world: bad ownership table")

// DecodeOwnershipTable parses an encoded table. It refuses an override
// under a tile alias, which no lookup would route (Owner canonicalises).
func DecodeOwnershipTable(data []byte) (*OwnershipTable, error) {
	if len(data) < 36 || binary.LittleEndian.Uint32(data) != ownershipMagicV2 {
		return nil, errBadOwnershipTable
	}
	shards := int(binary.LittleEndian.Uint32(data[4:]))
	spec := TopologySpec{
		TileChunks: int(binary.LittleEndian.Uint32(data[12:])),
		TilesX:     int(binary.LittleEndian.Uint32(data[16:])),
		TilesZ:     int(binary.LittleEndian.Uint32(data[20:])),
	}
	switch binary.LittleEndian.Uint32(data[8:]) {
	case wireKindBand:
		spec.Kind = "band"
	case wireKindGrid:
		spec.Kind = "grid"
	default:
		return nil, errBadOwnershipTable
	}
	topo, err := spec.Build()
	if err != nil {
		return nil, errBadOwnershipTable
	}
	t := NewOwnershipTable(shards, topo)
	t.epoch = binary.LittleEndian.Uint64(data[24:])
	n := int(binary.LittleEndian.Uint32(data[32:]))
	buf := data[36:]
	if len(buf) < 12*n {
		return nil, errBadOwnershipTable
	}
	for i := 0; i < n; i++ {
		tile := TileID{
			X: int(int32(binary.LittleEndian.Uint32(buf))),
			Z: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		}
		owner := int(int32(binary.LittleEndian.Uint32(buf[8:])))
		if owner < 0 || owner >= t.shards || t.Canon(tile) != tile {
			return nil, errBadOwnershipTable
		}
		t.overrides.Put(tile, owner)
		buf = buf[12:]
	}
	return t, nil
}

// Adopt merges a persisted table into this one: overrides and epoch
// carry over when the geometry (topology spec and shard count) matches
// and the persisted epoch is newer (a cluster restarting over an
// existing world resumes its ownership history instead of resetting it).
// Liveness is never adopted. Reports whether anything changed.
func (t *OwnershipTable) Adopt(dec *OwnershipTable) bool {
	if dec == nil || dec.shards != t.shards ||
		dec.topo.Spec() != t.topo.Spec() || dec.epoch <= t.epoch {
		return false
	}
	t.overrides.Clear()
	for tile, o := range dec.overrides.All() {
		t.overrides.Put(tile, o)
	}
	t.epoch = dec.epoch
	return true
}
