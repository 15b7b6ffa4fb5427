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
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
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
// all access, like the rest of the simulation. Look-ups only read it, so
// lanes may look up concurrently while no change runs.
type OwnershipTable struct {
	topo Topology
	// base is the boot-time shard count, frozen at construction: the
	// default assignment always splits tiles over base shards, so growing
	// the table (autoscaling) never reshuffles defaults. Shards added by
	// Grow own nothing by default and gain tiles only through overrides.
	base  int
	epoch uint64
	// overrides are tiles migrated away from the default assignment.
	overrides ChunkMap[TileID, int]
	// state holds one entry per shard slot. A dead shard's loop was
	// killed, and its tiles reroute to the surviving shards until it
	// recovers. A retired shard was drained and removed by the
	// autoscaler; its tiles reroute too, but retirement is deliberate: a
	// retired slot is only revived by Grow reusing it.
	state []slotState
	// alive lists the alive slots in ascending order, the survivors a
	// rerouted tile picks from. Every liveness change recomputes it, so a
	// look-up never builds it.
	alive []int
}

// slotState is a shard slot's liveness.
type slotState uint8

const (
	slotAlive slotState = iota
	slotDead
	slotRetired
)

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
	t := &OwnershipTable{topo: topo, base: shards, state: make([]slotState, shards)}
	for i := range shards {
		t.alive = append(t.alive, i)
	}
	return t
}

// Clone returns a copy of the table that later changes to either leave
// the other alone: a change applied to the copy is what Moves compares
// with the table to learn which shards lose a tile and which gain one.
func (t *OwnershipTable) Clone() *OwnershipTable {
	c := *t
	c.overrides = ChunkMap[TileID, int]{}
	for tile, o := range t.overrides.All() {
		c.overrides.Put(tile, o)
	}
	c.state = slices.Clone(t.state)
	c.alive = slices.Clone(t.alive)
	return &c
}

// Topology returns the table's static tiling; ownership itself lives in
// the table.
func (t *OwnershipTable) Topology() Topology { return t.topo }

// Shards returns the shard count, including dead and retired slots.
func (t *OwnershipTable) Shards() int { return len(t.state) }

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
	if t.state[o] != slotAlive {
		// Some shard is always alive: the last one cannot die or retire.
		o = t.alive[floorMod(t.topo.Index(tile), len(t.alive))]
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
	if !t.Alive(shard) || t.Owner(tile) == shard {
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
	from, to := slotDead, slotAlive
	if dead {
		from, to = slotAlive, slotDead
	}
	if shard < 0 || shard >= len(t.state) || t.state[shard] != from || (dead && len(t.alive) <= 1) {
		return false
	}
	t.setState(shard, to)
	return true
}

// Grow admits one more shard slot and returns its index, bumping the
// epoch. A previously retired slot is reused (lowest index first) so a
// scale-down/scale-up cycle does not grow the table without bound;
// otherwise a fresh index is appended. Either way the new shard owns no
// tiles by default — the default assignment stays frozen over Base() —
// and gains territory only through SetOwner overrides.
func (t *OwnershipTable) Grow() int {
	i := slices.Index(t.state, slotRetired)
	if i < 0 {
		i = len(t.state)
		t.state = append(t.state, slotAlive)
	}
	t.setState(i, slotAlive)
	return i
}

// Retire marks a drained shard as removed: its tiles (there should be
// none left after a drain) reroute to survivors, SetOwner refuses it as
// a target, and its slot becomes reusable by Grow. Retiring a dead,
// out-of-range, or the last alive shard is refused.
func (t *OwnershipTable) Retire(shard int) bool {
	if !t.Alive(shard) || len(t.alive) <= 1 {
		return false
	}
	t.setState(shard, slotRetired)
	return true
}

// setState moves shard slot i to state s, recomputes the alive list and
// bumps the epoch.
func (t *OwnershipTable) setState(i int, s slotState) {
	t.state[i] = s
	t.alive = t.alive[:0]
	for j, sj := range t.state {
		if sj == slotAlive {
			t.alive = append(t.alive, j)
		}
	}
	t.epoch++
}

// Dead reports whether the shard slot's loop was killed and has not
// recovered.
func (t *OwnershipTable) Dead(shard int) bool {
	return shard >= 0 && shard < len(t.state) && t.state[shard] == slotDead
}

// Alive reports whether the shard's loop is considered running: a slot
// of the table, neither crashed (dead) nor drained away (retired).
func (t *OwnershipTable) Alive(shard int) bool {
	return shard >= 0 && shard < len(t.state) && t.state[shard] == slotAlive
}

// AliveCount returns the number of alive shards.
func (t *OwnershipTable) AliveCount() int { return len(t.alive) }

// Moves reports which shard slots gain and which lose at least one tile
// when before becomes after, a changed Clone of it (so both share the
// topology and Base); both slices cover the larger table's slots. A tile
// no override names is owned by a function of its index that repeats with
// a period: a grid's tile count (TileAt wraps), or on bands lcm(Base,
// alive before, alive after), because there the default owner is the
// index mod Base and the reroute, when that owner is not alive, the index
// mod the alive count. So the override tiles of both tables and one
// period of indices say everything. The period starts past every override
// index, because an override tile cannot stand for the other tiles of its
// residue class.
func Moves(before, after *OwnershipTable) (gains, losses []bool) {
	n := max(before.Shards(), after.Shards())
	gains, losses = make([]bool, n), make([]bool, n)
	compare := func(tile TileID) {
		if b, a := before.Owner(tile), after.Owner(tile); b != a {
			gains[a], losses[b] = true, true
		}
	}
	topo := before.topo
	start := 0
	for _, t := range [2]*OwnershipTable{before, after} {
		for tile := range t.overrides.All() {
			compare(tile)
			start = max(start, topo.Index(tile)+1)
		}
	}
	period := topo.Tiles()
	if period == 0 {
		period = lcm(lcm(before.base, len(before.alive)), len(after.alive))
	}
	for i := start; i < start+period; i++ {
		compare(topo.TileAt(i))
	}
	return gains, losses
}

// lcm returns the least common multiple of two positive integers.
func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

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
	slices.SortFunc(out, func(a, b TileOverride) int {
		return cmp.Or(cmp.Compare(a.Tile.Z, b.Tile.Z), cmp.Compare(a.Tile.X, b.Tile.X))
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
	out = binary.LittleEndian.AppendUint32(out, uint32(len(t.state)))
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

// Adopt parses an encoded table into this one: its overrides and epoch
// replace this table's when it names this table's geometry (topology spec
// and shard count) and a newer epoch, so a cluster restarting over an
// existing world resumes its ownership history instead of resetting it.
// The geometry is the first 24 bytes (magic, shard count, topology spec)
// of this table's own encoding, and is checked before anything is built,
// so no size comes from the bytes. Bytes that are corrupt, name an owner
// out of range or an override under a tile alias (which no look-up would
// route; Owner canonicalises) change nothing. Liveness is never adopted.
// Reports whether anything changed.
func (t *OwnershipTable) Adopt(data []byte) bool {
	if len(data) < 36 || !bytes.Equal(data[:24], t.Encode()[:24]) {
		return false
	}
	epoch := binary.LittleEndian.Uint64(data[24:])
	n := int(binary.LittleEndian.Uint32(data[32:]))
	buf := data[36:]
	if epoch <= t.epoch || len(buf) < 12*n {
		return false
	}
	var overrides ChunkMap[TileID, int]
	for range n {
		tile := TileID{
			X: int(int32(binary.LittleEndian.Uint32(buf))),
			Z: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		}
		owner := int(int32(binary.LittleEndian.Uint32(buf[8:])))
		if owner < 0 || owner >= len(t.state) || t.Canon(tile) != tile {
			return false
		}
		overrides.Put(tile, owner)
		buf = buf[12:]
	}
	t.overrides, t.epoch = overrides, epoch
	return true
}
