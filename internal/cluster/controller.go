// The cluster control plane: a controller loop that watches per-shard
// tick load, migrates tile ownership between shards when the load
// imbalance drifts past a threshold (live rebalancing), and fails a
// killed shard's tiles and players over to the survivors.
//
// A migration is two-phase, like every ownership change but a failover
// (changeOwnership). First the source shard flushes its copy of the
// tile's chunks through the storage substrate with completion reporting
// (mve.FlushOwnedChunks over the store's StoreThen), so a brownout delays the
// flush but cannot lose chunk state; only once every write has landed
// does the ownership table flip the tile to its new owner (epoch bump,
// persisted through the TableStore). Resident players then
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
		if p.sess == nil {
			continue
		}
		tile := c.table.TileOfBlock(p.sess.Pos())
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

// migrateTile migrates ownership of a tile to dst through
// changeOwnership; resident players follow through the boundary scan.
// move is the journal kind of the migration's reason. Reports whether a
// migration was started.
func (c *Cluster) migrateTile(tile world.TileID, dst int, move Kind) bool {
	// The in-flight set holds canonical tiles, as ownedTiles reports them.
	tile = c.table.Canon(tile)
	src := c.table.Owner(tile)
	if _, busy := c.migrating.Get(tile); busy {
		return false
	}
	c.migrating.Put(tile, struct{}{})
	start := c.clock.Now()
	started := c.changeOwnership(func(t *world.OwnershipTable) bool { return t.SetOwner(tile, dst) }, func(flipped bool) {
		c.migrating.Delete(tile)
		if flipped {
			c.record(Record{Kind: move, Tile: tile, Shard: src, Peer: dst,
				Epoch: c.table.Epoch(), Latency: c.clock.Now() - start})
		}
	})
	if !started {
		c.migrating.Delete(tile)
	}
	return started
}

// changeOwnership is how the ownership table changes: change edits a table
// and reports whether it changed anything. Applied to a copy, it tells
// world.Moves which shards lose a tile; each loser flushes, in shard
// order, the chunks it owns now and will not after. Once every flush has
// landed, flip applies change to the live table again, and then learns
// whether it did. Neither runs once the cluster stopped. A change that
// takes nothing from anyone flips before changeOwnership returns. Reports
// whether change applied to the copy.
func (c *Cluster) changeOwnership(change func(*world.OwnershipTable) bool, then func(flipped bool)) bool {
	after := c.table.Clone()
	if !change(after) {
		return false
	}
	pending := 1
	landed := func() {
		pending--
		if pending != 0 || c.stopped {
			return
		}
		then(c.flip(change))
	}
	_, losses := world.Moves(c.table, after)
	for s, srv := range c.shards {
		if !losses[s] {
			continue
		}
		pending++
		srv.FlushOwnedChunks(func(cp world.ChunkPos) bool { return after.ShardOf(cp) != s }, landed)
	}
	landed()
	return true
}

// flip applies change to the live table with no flush (alone only in
// FailShard: a dead shard cannot flush). If it applied, the gainers reload,
// a shard that came alive gets a fresh server (its caller starts it), the
// table is persisted and the alive count sampled. Reports whether change
// applied.
func (c *Cluster) flip(change func(*world.OwnershipTable) bool) bool {
	next := c.table.Clone()
	if !change(next) {
		return false
	}
	// The region views hold the live table's address, so next's contents
	// move in, and before keeps the old ones, which nothing changes now.
	before := *c.table
	*c.table = *next
	c.reloadGained(&before)
	for s := range c.table.Shards() {
		if c.table.Alive(s) && !before.Alive(s) {
			c.join(s)
		}
	}
	if c.tableStore != nil {
		c.tableStore.SaveTable(c.table.Encode())
	}
	c.noteShardsActive()
	return true
}

// join builds shard i's server through the ShardBuilder, over storage as
// it stands (after the flushes of the change that brings it alive). A
// reused slot passes on its tick history, so report series span the whole
// run, and its tile-cost accounting, so the demand signal the autoscaler
// differences never regresses.
func (c *Cluster) join(i int) {
	srv := c.build(i, c.table.View(i))
	if i < len(c.shards) {
		old := c.shards[i]
		srv.TickDurations = old.TickDurations
		srv.TickSeries = old.TickSeries
		srv.AdoptTileCosts(old.TileCosts())
		c.shards[i] = srv
	} else {
		c.shards = append(c.shards, srv)
		c.HandoffsIn = append(c.HandoffsIn, metrics.Counter{})
		c.HandoffsOut = append(c.HandoffsOut, metrics.Counter{})
	}
	srv.SetChatRelay(func(from *mve.Player) int { return c.relayChat(srv, from) })
}

// FailShard kills shard i: its loop crashes (every in-memory session is
// gone), its tiles reroute deterministically to the survivors (epoch
// bump), and its players are re-admitted from their last persisted
// snapshots — falling back to the last scan-observed position for players
// that were never persisted, so a failover loses no player. Owned-
// construct state on the dead shard died with it; the ownership refs are
// dropped. Refuses to kill the last alive shard.
//
// Durability: an accepted chunk edit reaches storage within one tcache
// FlushInterval (30 s) or before its tile changes owner, whichever comes
// first — except across a failover, which flips with no flush: the dead
// shard's unflushed edits are lost, uncounted, and while another shard is
// already dead its rerouted tiles move between survivors
// (alive[index mod len(alive)]) unflushed.
func (c *Cluster) FailShard(i int) bool {
	if !c.flip(func(t *world.OwnershipTable) bool { return t.SetDead(i, true) }) {
		return false // out of range, not alive, or the last alive shard
	}
	// Collect the victims before the crash wipes the shard's sessions.
	var victims []*Player
	for _, p := range c.order {
		if p.shard == i && !p.inflight {
			victims = append(victims, p)
		}
	}
	c.shards[i].Crash()
	// A crash aborts any drain in progress on the shard: failover owns
	// the cleanup from here.
	delete(c.draining, i)
	if c.tracker != nil && c.tracker.RecordFailure(i, c.clock.Now()) {
		c.record(Record{Kind: Quarantine, Shard: i, Epoch: c.table.Epoch()})
	}
	c.record(Record{Kind: Failover, Shard: i, Epoch: c.table.Epoch()})
	for _, p := range victims {
		c.readmit(p)
	}
	return true
}

// reloadGained makes every shard that gains a tile in an ownership change
// (world.Moves) and was alive before it (one that was not is fresh) drop
// and reload the chunk copies it holds of tiles it owns now and did not
// under before. A copy held as a non-owner never saw the owner's edits,
// which storage has: the losers flushed before the flip, and a failover's
// storage is as current as the dead shard's last flush. It runs in serial
// context, at the change.
func (c *Cluster) reloadGained(before *world.OwnershipTable) {
	gains, _ := world.Moves(before, c.table)
	for s, srv := range c.shards {
		if !gains[s] || !before.Alive(s) {
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
	p.inflight, p.sess = true, nil
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
		p.shard, p.sess, p.pendingShard = dst, sess, dst
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

// RecoverShard replaces a failed shard: each survivor flushes the tiles it
// hands back, then the shard is alive again on a fresh server (join), its
// tiles revert (epoch bump) and residents walk home through the boundary
// scan. Tiles a survivor keeps write back on the tcache cadence: an
// accepted chunk edit reaches storage within one tcache FlushInterval, or
// before its tile changes owner, whichever comes first. Reports whether a
// recovery started.
func (c *Cluster) RecoverShard(i int) bool {
	if c.stopped || !c.table.Dead(i) {
		return false
	}
	if c.tracker != nil && c.tracker.Quarantined(i, c.clock.Now()) {
		// Crash-looping shard: refuse re-admission until probation passes.
		// The autoscaler retries once it does.
		c.recoverWanted[i] = true
		return false
	}
	delete(c.recoverWanted, i)
	return c.changeOwnership(func(t *world.OwnershipTable) bool { return t.SetDead(i, false) }, func(flipped bool) {
		if !flipped {
			return
		}
		c.record(Record{Kind: Recover, Shard: i, Epoch: c.table.Epoch()})
		if c.running {
			c.shards[i].Start()
		}
	})
}
