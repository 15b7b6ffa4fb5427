// The cluster control plane: a controller loop that watches per-shard
// tick load, migrates tile ownership between shards when the load
// imbalance drifts past a threshold (live rebalancing), and fails a
// killed shard's tiles and players over to the survivors.
//
// A migration is two-phase. First the source shard flushes its copy of
// the tile's chunks through the storage substrate with completion
// reporting (mve.FlushOwnedChunks + SyncingChunkStore), so a brownout
// delays the flush but cannot lose chunk state; only once every write
// has landed does the ownership table flip the tile to its new owner
// (epoch bump, persisted through the TableStore). Resident players then
// follow their tile through the ordinary boundary-scan handoff — two-scan
// hysteresis, retrying storage writes — because the scan consults the
// live table and now sees them on foreign terrain.

package cluster

import (
	"sort"
	"time"

	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/world"
)

// Controller defaults.
const (
	// DefaultRebalanceThreshold is the load_imbalance (max over shards of
	// mean tick duration, divided by the cross-shard mean) above which the
	// controller migrates a tile.
	DefaultRebalanceThreshold = 1.25
	// DefaultRebalanceInterval is the controller check cadence.
	DefaultRebalanceInterval = 2 * time.Second
	// rebalanceStreak is how many consecutive over-threshold checks arm a
	// migration: the rebalancer's hysteresis against transient spikes,
	// mirroring the handoff scan's two-scan rule.
	rebalanceStreak = 2
)

// RebalanceConfig tunes the controller loop.
type RebalanceConfig struct {
	// Enabled turns live rebalancing on. Failover (FailShard/RecoverShard)
	// works regardless: it is driven by explicit calls, not by load.
	Enabled bool
	// Threshold is the imbalance trigger (0 → DefaultRebalanceThreshold).
	Threshold float64
	// Interval is the check cadence (0 → DefaultRebalanceInterval).
	Interval time.Duration
}

// withDefaults fills zero fields.
func (r RebalanceConfig) withDefaults() RebalanceConfig {
	if r.Threshold == 0 {
		r.Threshold = DefaultRebalanceThreshold
	}
	if r.Interval == 0 {
		r.Interval = DefaultRebalanceInterval
	}
	return r
}

// controllerTick is one controller check: measure per-shard tick load
// over the last interval, and migrate one tile from the hottest to the
// coldest shard once the imbalance has stayed over threshold for
// rebalanceStreak consecutive checks.
func (c *Cluster) controllerTick() {
	if c.stopped {
		return
	}
	defer c.clock.After(c.reb.Interval, c.controllerTick)
	if c.migrating.Len() > 0 || len(c.draining) > 0 {
		// Let the in-flight migration (or a drain emptying a shard toward
		// retirement) land before re-measuring.
		return
	}
	imb, hot, cold := c.loadImbalance()
	if imb < c.reb.Threshold || hot == cold {
		c.hotStreak = 0
		return
	}
	c.hotStreak++
	if c.hotStreak < rebalanceStreak {
		return
	}
	c.hotStreak = 0
	if tile, ok := c.pickTile(hot, cold); ok {
		c.record(Record{Kind: Rebalance, Tile: tile, Shard: hot, Peer: cold})
		c.migrateTile(tile, cold, MoveRebalance)
	}
}

// shardLoad is shard i's mean tick duration over the last controller
// interval, read from the server's tick time series.
func (c *Cluster) shardLoad(i int) time.Duration {
	now := c.clock.Now()
	s := &metrics.Sample{}
	s.AddAll(c.shards[i].TickSeries.ValuesBetween(now-c.reb.Interval, now))
	return s.Mean()
}

// loadImbalance returns metrics.ImbalanceRatio of per-shard tick load
// across the alive shards, plus the hottest and coldest shard indices
// (ties broken toward the lower index, keeping the controller
// deterministic).
func (c *Cluster) loadImbalance() (imb float64, hot, cold int) {
	hot, cold = -1, -1
	var hotLoad, coldLoad float64
	var loads []float64
	for i := range c.shards {
		if !c.table.Alive(i) || c.draining[i] {
			continue
		}
		load := float64(c.shardLoad(i))
		loads = append(loads, load)
		if hot < 0 || load > hotLoad {
			hot, hotLoad = i, load
		}
		if cold < 0 || load < coldLoad {
			cold, coldLoad = i, load
		}
	}
	if hot < 0 {
		return 1, 0, 0
	}
	return metrics.ImbalanceRatio(loads), hot, cold
}

// pickTile chooses which of the hot shard's tiles to migrate to the cold
// shard: resident player count is the per-tile load proxy over the 2-D
// load map, and the tile minimising the post-move maximum of the two
// shards wins — with strict improvement required, so a single dominant
// hotspot tile is never ping-ponged between shards. Ties break toward
// territory contiguity: among equally good tiles, the one with the most
// Topology.Neighbors already owned by the cold shard wins (a tile grafts
// onto the cold territory's edge instead of being stranded as an island
// inside the hot one), then toward the lower space-filling index (on
// bands every tile has the same adjacency, so this stays identical to
// the PR 3 lowest-band rule).
func (c *Cluster) pickTile(hot, cold int) (world.TileID, bool) {
	var counts world.ChunkMap[world.TileID, int]
	var tiles []world.TileID
	hotPlayers, coldPlayers := 0, 0
	for _, p := range c.order {
		if p.inflight {
			continue
		}
		sess := c.shards[p.shard].Player(p.pid)
		if sess == nil {
			continue
		}
		tile := c.table.TileOfBlock(sess.Pos())
		switch p.shard {
		case hot:
			hotPlayers++
			if c.table.Owner(tile) == hot {
				n, _ := counts.Get(tile)
				if n == 0 {
					tiles = append(tiles, tile)
				}
				counts.Put(tile, n+1)
			}
		case cold:
			coldPlayers++
		}
	}
	cur := max(hotPlayers, coldPlayers)
	var best world.TileID
	bestMax, bestAdj := 0, -1
	found := false
	for _, tile := range tiles {
		n, _ := counts.Get(tile)
		m := max(hotPlayers-n, coldPlayers+n)
		if m >= cur {
			continue // no strict improvement: never a candidate
		}
		adj := c.coldAdjacency(tile, cold)
		better := !found || m < bestMax
		if !better && m == bestMax {
			better = adj > bestAdj || (adj == bestAdj && c.topo.Index(tile) < c.topo.Index(best))
		}
		if better {
			best, bestMax, bestAdj, found = tile, m, adj, true
		}
	}
	if !found {
		return world.TileID{}, false
	}
	return best, true
}

// TileLoad is one tile's attributed cost across the cluster: the
// per-tile load signal (actions processed and chunk writes issued on the
// tile's terrain) behind the resident-player proxy pickTile uses today —
// exposed so controller policies (and reports) can consume real per-tick
// cost instead of head counts.
type TileLoad struct {
	Tile  world.TileID
	Owner int
	// Actions and Stores accumulate since boot, summed across shards.
	Actions, Stores int64
}

// TileLoads returns the per-tile attributed cost, summed across every
// shard's server and sorted by the topology's space-filling index (on
// unbounded band topologies only tiles that saw work appear).
func (c *Cluster) TileLoads() []TileLoad {
	var sums world.ChunkMap[world.TileID, TileLoad]
	for _, s := range c.shards {
		for tile, cost := range s.TileCosts() {
			tl, ok := sums.Get(tile)
			if !ok {
				tl = TileLoad{Tile: tile, Owner: c.table.Owner(tile)}
			}
			tl.Actions += cost.Actions
			tl.Stores += cost.Stores
			sums.Put(tile, tl)
		}
	}
	out := make([]TileLoad, 0, sums.Len())
	for _, tl := range sums.All() {
		out = append(out, tl)
	}
	sort.Slice(out, func(i, j int) bool { return c.topo.Index(out[i].Tile) < c.topo.Index(out[j].Tile) })
	return out
}

// coldAdjacency counts how many of a tile's neighbours the destination
// shard already owns: the contiguity score of migrating it there.
func (c *Cluster) coldAdjacency(tile world.TileID, cold int) int {
	adj := 0
	for _, n := range c.topo.Neighbors(tile) {
		if c.table.Owner(n) == cold {
			adj++
		}
	}
	return adj
}

// migrateTile migrates ownership of a tile to dst: flush the source
// shard's chunk copies with completion reporting, then flip the table
// (epoch bump, persisted). Resident players follow through the boundary
// scan. move is the journal kind of the migration's reason. Reports
// whether a migration was started.
func (c *Cluster) migrateTile(tile world.TileID, dst int, move Kind) bool {
	// Canonical form: the flush predicate and the in-flight set compare
	// against TileOf output, which an aliased caller reference would miss.
	tile = c.table.Canon(tile)
	src := c.table.Owner(tile)
	if _, busy := c.migrating.Get(tile); src == dst || !c.table.Alive(dst) || busy {
		return false
	}
	c.migrating.Put(tile, struct{}{})
	start := c.clock.Now()
	pred := func(cp world.ChunkPos) bool { return c.table.TileOf(cp) == tile }
	c.shards[src].FlushOwnedChunks(pred, func() {
		c.migrating.Delete(tile)
		if c.stopped || !c.table.Alive(dst) {
			return // the cluster stopped or dst died while we flushed
		}
		before := c.table.Clone()
		if !c.table.SetOwner(tile, dst) {
			return
		}
		c.reloadGained(before, -1)
		c.persistTable()
		c.record(Record{
			Kind: move, Tile: tile, Shard: src, Peer: dst,
			Epoch: c.table.Epoch(), Latency: c.clock.Now() - start,
		})
	})
	return true
}

// FailShard kills shard i: its loop crashes (every in-memory session is
// gone), its tiles reroute deterministically to the survivors (epoch
// bump), and its players are re-admitted from their last persisted
// snapshots — falling back to the last scan-observed position for players
// that were never persisted, so a failover loses no player. Owned-
// construct state on the dead shard died with it; the ownership refs are
// dropped. Refuses to kill the last alive shard.
func (c *Cluster) FailShard(i int) bool {
	if i < 0 || i >= len(c.shards) || !c.table.Alive(i) || c.table.AliveCount() <= 1 {
		return false
	}
	// Collect the victims before the crash wipes the shard's sessions.
	var victims []*Player
	for _, p := range c.order {
		if p.shard == i && !p.inflight {
			victims = append(victims, p)
		}
	}
	c.shards[i].Crash()
	before := c.table.Clone()
	c.table.SetDead(i, true)
	c.reloadGained(before, -1)
	// A crash aborts any drain in progress on the shard: failover owns
	// the cleanup from here.
	delete(c.draining, i)
	if c.tracker != nil && c.tracker.RecordFailure(i, c.clock.Now()) {
		c.record(Record{Kind: Quarantine, Shard: i, Epoch: c.table.Epoch()})
	}
	c.persistTable()
	c.noteShardsActive()
	c.record(Record{Kind: Failover, Shard: i, Epoch: c.table.Epoch()})
	for _, p := range victims {
		c.readmit(p)
	}
	return true
}

// reloadGained makes every alive shard but fresh drop and reload the chunk
// copies it holds of tiles it owns now and did not own under before, the
// table as it stood before an ownership change. A copy a shard held as a
// non-owner never saw the owner's edits, which storage has: a migration
// flips only after the source's flush landed, and a failover's storage is
// as current as the dead shard's last flush. It runs in serial context,
// at the change, before any shard's next tick.
func (c *Cluster) reloadGained(before *world.OwnershipTable, fresh int) {
	for s, srv := range c.shards {
		if s == fresh || !c.table.Alive(s) {
			continue
		}
		n := srv.ReloadChunks(func(cp world.ChunkPos) bool {
			return c.table.ShardOf(cp) == s && before.ShardOf(cp) != s
		})
		if n > 0 {
			c.record(Record{Kind: Reload, Shard: s, N: int32(n), Epoch: c.table.Epoch()})
		}
	}
}

// readmit restores one failed shard's session: from the last persisted
// snapshot when the transfer store has one, else at the last scan-
// observed position with an empty record.
func (c *Cluster) readmit(p *Player) {
	p.inflight = true
	finish := func(snap mve.PlayerSnapshot) {
		p.inflight = false
		if p.closed {
			c.drop(p)
			return
		}
		dst := c.table.ShardOfBlock(world.BlockPos{X: int(snap.X), Z: int(snap.Z)})
		sess := c.shards[dst].AdmitPlayer(snap)
		// The re-admitted avatar supersedes any ghost of itself here.
		if c.vis.Enabled && c.shards[dst].RemoveGhost(p.key) {
			c.record(Record{Kind: GhostPromote, Player: int32(p.key), Shard: dst})
		}
		c.record(Record{Kind: FailedOver, Player: int32(p.key), Shard: p.shard, Peer: dst})
		p.shard, p.pid, p.pendingShard = dst, sess.ID, dst
	}
	fallback := mve.PlayerSnapshot{
		Name: p.Name,
		X:    float64(p.lastPos.X), Z: float64(p.lastPos.Z),
		DestX: float64(p.lastPos.X), DestZ: float64(p.lastPos.Z),
		Behavior: p.behavior,
	}
	if c.transfer == nil {
		finish(fallback)
		return
	}
	c.transfer.Load(p.Name, func(data []byte, ok bool) {
		snap := fallback
		if ok {
			if dec, err := mve.DecodeSnapshot(data); err == nil {
				dec.Name, dec.Behavior = p.Name, p.behavior
				snap = dec
			}
		}
		finish(snap)
	})
}

// RecoverShard replaces a failed shard: every survivor flushes the chunks
// it owns (so the store holds the interim owners' state), a fresh server
// is built over the persisted world through the ShardBuilder, and the
// shard is marked alive again — reverting its tiles (epoch bump), after
// which resident players walk home through the boundary scan. Reports
// whether a recovery was started.
func (c *Cluster) RecoverShard(i int) bool {
	if i < 0 || i >= len(c.shards) || c.table.Alive(i) || c.table.Retired(i) || c.stopped {
		return false
	}
	if c.tracker != nil && c.tracker.Quarantined(i, c.clock.Now()) {
		// Crash-looping shard: refuse re-admission until probation passes.
		// The autoscaler retries once it does.
		c.recoverWanted[i] = true
		return false
	}
	delete(c.recoverWanted, i)
	pending := 1
	finish := func() {
		pending--
		if pending != 0 || c.stopped {
			return
		}
		// The replacement process boots over the persisted world. It
		// inherits the crashed server's tick history (the dead gap is
		// simply absent), so report series and windowed assertions keep
		// spanning the whole run.
		crashed := c.shards[i]
		c.shards[i] = c.build(i, c.table.View(i))
		c.shards[i].TickDurations = crashed.TickDurations
		c.shards[i].TickSeries = crashed.TickSeries
		// Tile-cost accounting survives the rebuild too: the autoscaler
		// differences the cluster-summed signal, which must not regress.
		c.shards[i].AdoptTileCosts(crashed.TileCosts())
		src := c.shards[i]
		src.SetChatRelay(func(from *mve.Player) int { return c.relayChat(src, from) })
		before := c.table.Clone()
		c.table.SetDead(i, false)
		// The fresh server read the world after every survivor's flush:
		// only the survivors can hold stale copies, of tiles that a
		// change of the alive set reroutes to them.
		c.reloadGained(before, i)
		c.persistTable()
		c.noteShardsActive()
		c.record(Record{Kind: Recover, Shard: i, Epoch: c.table.Epoch()})
		if c.running {
			c.shards[i].Start()
		}
	}
	for s := range c.shards {
		if !c.table.Alive(s) {
			continue
		}
		pending++
		c.shards[s].FlushOwnedChunks(nil, finish)
	}
	finish()
	return true
}
