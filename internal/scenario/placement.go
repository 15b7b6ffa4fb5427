package scenario

import (
	"servo/internal/cluster"
	"servo/internal/world"
)

// Placement says where a player joins. At most one field is set; the
// zero value is world spawn. Fleet groups embed it; a flash crowd's tile
// and a stress fleet's "spread" (bot i joins shard i mod N) build one.
type Placement struct {
	// Shard places the player inside that shard's home tile (requires a
	// sharded scenario).
	Shard *int `json:"shard,omitempty"`
	// Tile places the player at that region tile's center — finer-grained
	// than Shard, e.g. to build a hotspot inside one specific tile of a
	// shard's territory (requires a sharded scenario).
	Tile *[2]int `json:"tile,omitempty"`
	// Pos places the player at that exact block position [x, z] — e.g.
	// directly on a tile seam, where tile centers cannot reach.
	Pos *[2]int `json:"pos,omitempty"`
}

// validate checks the placement against the scenario's shard count and
// topology. ctx names its carrier in error messages.
func (p Placement) validate(s *Spec, ctx string) error {
	forms := 0
	for _, set := range []bool{p.Shard != nil, p.Tile != nil, p.Pos != nil} {
		if set {
			forms++
		}
	}
	if forms > 1 {
		return s.errf("%s: shard, tile, and pos placement are mutually exclusive", ctx)
	}
	switch {
	case p.Shard != nil:
		if err := s.require(ctx+": shard placement", needsCluster); err != nil {
			return err
		}
		if *p.Shard < 0 || *p.Shard >= s.Shards {
			return s.errf("%s: shard %d out of range [0, %d)", ctx, *p.Shard, s.Shards)
		}
	case p.Tile != nil:
		if err := s.require(ctx+": tile placement", needsCluster); err != nil {
			return err
		}
		tile := *p.Tile
		if tp := s.Topology; tp.Grid() {
			if tile[0] < 0 || tile[0] >= tp.TilesX || tile[1] < 0 || tile[1] >= tp.TilesZ {
				return s.errf("%s: tile [%d,%d] outside the %dx%d grid", ctx, tile[0], tile[1], tp.TilesX, tp.TilesZ)
			}
		} else if tile[1] != 0 {
			return s.errf("%s: band-topology tiles lie on z=0 (got [%d,%d])", ctx, tile[0], tile[1])
		}
	case p.Pos != nil:
		for _, v := range *p.Pos {
			if v < -100000 || v > 100000 {
				return s.errf("%s: pos coordinate %d out of range [-100000, 100000]", ctx, v)
			}
		}
	}
	return nil
}

// resolve turns the placement into the block position the player joins
// at.
func (p Placement) resolve(cl *cluster.Cluster) world.BlockPos {
	switch {
	case p.Shard != nil:
		return cl.Home(*p.Shard)
	case p.Tile != nil:
		return cl.TileCenter(world.TileID{X: p.Tile[0], Z: p.Tile[1]})
	case p.Pos != nil:
		return world.BlockPos{X: p.Pos[0], Z: p.Pos[1]}
	}
	return world.BlockPos{} // world spawn
}

// placement returns where a flash crowd lands: its tile, or world spawn.
func (e *Event) placement() Placement { return Placement{Tile: e.Tile} }

// placeBot returns stress bot i's placement: under "spread", shard i mod
// N's home tile.
func (st *StressSpec) placeBot(i, shards int) Placement {
	if st.Placement != "spread" {
		return Placement{}
	}
	shard := i % shards
	return Placement{Shard: &shard}
}
