// Elastic shard count: the autoscaling policy subsystem. The PR 3
// controller rebalances load across a *fixed* shard set; this layer
// makes the set itself elastic. Three legs:
//
//   - Lifecycle: AddShard spawns a fresh server over the persisted world
//     through the cluster's ShardBuilder (it acquires its own clock lane
//     and joins the visibility bus and ownership table at a new epoch);
//     RemoveShard drains a shard — every owned tile migrates off through
//     the existing two-phase durable-flush-gated migration, residents
//     follow via the boundary scan — then retires it with zero lost
//     players.
//
//   - Policy: autoscalerTick differences TileLoads snapshots into
//     per-tile demand rates, scales up/down on utilization bands with
//     per-direction cooldowns, and projects rates along their derivative
//     so a flash crowd detected *forming* triggers proactive spreading
//     (PlanBalance multi-tile plans scored on the post-move load map)
//     before latency degrades.
//
//   - Health: every FailShard is recorded by the failure tracker; a
//     crash-looping shard is quarantined — RecoverShard refuses it until
//     a probation window passes, after which the autoscaler re-admits it.
//
// Everything runs on the virtual clock's serial lane in deterministic
// order, so scale events replay byte-identically at every worker-pool
// size.

package cluster

import (
	"fmt"
	"slices"
	"time"

	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/world"
)

// The autoscaling policy's fixed parameters and its defaults.
const (
	// autoscaleInterval is the policy check cadence.
	autoscaleInterval = 2 * time.Second
	// upCooldown is the minimum gap between successive scale-ups.
	upCooldown = 2 * autoscaleInterval
	// horizon is how far ahead the tile-load derivative is projected
	// when deciding: the predictive window that catches a flash crowd
	// forming.
	horizon = 2 * autoscaleInterval
	// maxMoves caps one planning round's migration plan.
	maxMoves = 4
	// HighUtil / DefaultLowUtil are the utilization band edges:
	// projected utilization above High scales up, utilization that would
	// stay under Low even after removing a shard scales down.
	HighUtil       = 0.75
	DefaultLowUtil = 0.35
	// DefaultShardCapacity is one shard's nominal demand capacity in cost
	// units (actions + chunk stores) per second. Workload-dependent;
	// scenarios calibrate it explicitly.
	DefaultShardCapacity = 500
)

// AutoscaleConfig tunes the autoscaling policy subsystem.
type AutoscaleConfig struct {
	// Enabled turns the policy loop on. AddShard/RemoveShard work
	// regardless: like failover, lifecycle is driven by explicit calls
	// even when the policy is off.
	Enabled bool
	// MinShards / MaxShards bound the alive shard count the policy may
	// scale to (Min 0 → the boot shard count; Max 0 → twice the boot
	// count). The effective floor is always at least the boot count:
	// only shards added at runtime are ever removed.
	MinShards int
	MaxShards int
	// LowUtil is the scale-down band edge (0 → DefaultLowUtil); it must
	// lie below HighUtil.
	LowUtil float64
	// ShardCapacity is one shard's demand capacity in cost units per
	// second (0 → DefaultShardCapacity).
	ShardCapacity float64
	// DownCooldown is the minimum gap between successive scale-downs
	// (0 → 6 policy intervals).
	DownCooldown time.Duration
	// Probation is how long a crash-looping shard stays quarantined
	// after its last crash (0 → the failure tracker's 2m). A shard is
	// quarantined after 3 crashes within 2 minutes.
	Probation time.Duration
}

// withDefaults fills zero fields; boot is the boot shard count.
func (a AutoscaleConfig) withDefaults(boot int) AutoscaleConfig {
	if a.MinShards <= 0 {
		a.MinShards = boot
	}
	if a.MaxShards <= 0 {
		a.MaxShards = 2 * boot
	}
	if a.LowUtil == 0 {
		a.LowUtil = DefaultLowUtil
	}
	if a.ShardCapacity == 0 {
		a.ShardCapacity = DefaultShardCapacity
	}
	if a.DownCooldown == 0 {
		a.DownCooldown = 6 * autoscaleInterval
	}
	return a
}

// CheckBounds returns an error when the policy, enabled on a cluster
// that boots boot shards over topo (nil → bands), has a shard range the
// cluster cannot keep: the effective maximum (MaxShards, or twice the
// boot count) must reach both the boot count and the effective minimum,
// and a finite topology needs a tile for every shard. The scenario spec
// and servo.NewInstance both check through it.
func (a AutoscaleConfig) CheckBounds(boot int, topo world.Topology) error {
	eff := a.withDefaults(boot)
	hi := fmt.Sprint(eff.MaxShards)
	if a.MaxShards <= 0 {
		hi += " (twice the boot count)"
	}
	switch {
	case eff.MaxShards < boot:
		return fmt.Errorf("max shards %s is below the boot shard count %d", hi, boot)
	case eff.MinShards > eff.MaxShards:
		return fmt.Errorf("min shards %d exceeds max shards %s", eff.MinShards, hi)
	case topo != nil && topo.Tiles() > 0 && eff.MaxShards > topo.Tiles():
		return fmt.Errorf("max shards %s over a %d-tile grid: more shards than tiles", hi, topo.Tiles())
	}
	return nil
}

// tileRateState tracks one tile's demand between policy ticks.
type tileRateState struct {
	lastTotal int64
	lastRate  float64
}

// AddShard grows the cluster by one shard: the ownership table admits a
// new slot at a new epoch (reusing a retired slot when one exists, so
// scale cycles do not grow the table without bound), the ShardBuilder
// constructs a fresh server over the persisted world on its own clock
// lane, and the shard joins the boundary scan, visibility bus, and chat
// relay like any boot shard. The new shard owns no tiles until a
// migration plan spreads load onto it. Returns the new shard index, or
// -1 on a stopped cluster.
func (c *Cluster) AddShard() int {
	if c.stopped {
		return -1
	}
	first := c.table.Shards() == 1
	before := c.table.Clone()
	idx := c.table.Grow()
	srv := c.build(idx, c.table.View(idx))
	if idx < len(c.shards) {
		// Reused slot: inherit the retired incarnation's tick history so
		// report series keep spanning the whole run, like RecoverShard —
		// and its tile-cost accounting, so the cluster-summed demand
		// signal the policy differences never regresses.
		old := c.shards[idx]
		srv.TickDurations = old.TickDurations
		srv.TickSeries = old.TickSeries
		srv.AdoptTileCosts(old.TileCosts())
		c.shards[idx] = srv
	} else {
		c.shards = append(c.shards, srv)
		c.HandoffsIn = append(c.HandoffsIn, metrics.Counter{})
		c.HandoffsOut = append(c.HandoffsOut, metrics.Counter{})
	}
	src := srv
	srv.SetChatRelay(func(from *mve.Player) int { return c.relayChat(src, from) })
	// A new alive slot reroutes dead shards' tiles over the survivors.
	c.reloadGained(before, idx)
	c.persistTable()
	c.noteShardsActive()
	c.record(Record{Kind: ScaleUp, Shard: idx, Epoch: c.table.Epoch()})
	if c.running {
		srv.Start()
		if first {
			// The table's second slot: the first boundary to scan for
			// (Start left the scan unarmed on a one-shard table).
			c.clock.After(c.scanInterval, c.scan)
		}
	}
	return idx
}

// RemoveShard starts draining shard i toward retirement: every tile it
// owns migrates off through the two-phase durable-flush-gated migration
// (residents follow via the boundary scan), and once the shard owns no
// tiles and hosts no sessions it flushes and retires at a new epoch —
// zero lost players. Only shards added at runtime (index >= the boot
// count) can be removed; the drain is asynchronous and survives
// migration aborts (a destination dying mid-flush) by re-planning every
// scan interval. Reports whether a drain started.
func (c *Cluster) RemoveShard(i int) bool {
	if c.stopped || i < c.table.Base() || i >= len(c.shards) ||
		!c.table.Alive(i) || c.draining[i] || c.table.AliveCount() <= 1 {
		return false
	}
	c.draining[i] = true
	c.record(Record{Kind: Drain, Shard: i, N: int32(len(c.ownedTiles(i))), Epoch: c.table.Epoch()})
	c.drainTick(i)
	return true
}

// ownedTiles enumerates the tiles shard i currently owns, in
// space-filling-index order: override tiles, tiles with attributed load,
// and tiles hosting sessions. (On unbounded band topologies zero-state
// tiles defaulting to a boot shard are not enumerable — which is why
// only added shards, who own nothing by default, are removable.)
func (c *Cluster) ownedTiles(i int) []world.TileID {
	var out []world.TileID
	add := func(tile world.TileID) {
		tile = c.table.Canon(tile)
		if !slices.Contains(out, tile) && c.table.Owner(tile) == i {
			out = append(out, tile)
		}
	}
	for _, ov := range c.table.Overrides() {
		add(ov.Tile)
	}
	for _, tl := range c.TileLoads() {
		add(tl.Tile)
	}
	for _, p := range c.order {
		if p.inflight {
			continue
		}
		if sess := c.shards[p.shard].Player(p.pid); sess != nil {
			add(c.table.TileOfBlock(sess.Pos()))
		}
	}
	slices.SortStableFunc(out, func(a, b world.TileID) int { return c.topo.Index(a) - c.topo.Index(b) })
	return out
}

// drainTick is one step of shard i's drain: push every still-owned tile
// toward the least-loaded healthy shard, and retire once nothing is
// left. Reschedules itself on the scan cadence until done — so a
// migration aborted by a dying destination, or a session handed off onto
// the draining shard mid-drain, is simply retried next tick.
func (c *Cluster) drainTick(i int) {
	if c.stopped || !c.draining[i] {
		return
	}
	if !c.table.Alive(i) {
		// Crashed mid-drain: failover already rerouted its tiles and
		// re-admitted its players; the drain is moot.
		delete(c.draining, i)
		return
	}
	tiles := c.ownedTiles(i)
	if len(tiles) == 0 && c.shards[i].PlayerCount() == 0 && !c.hasSessions(i) {
		c.finishDrain(i)
		return
	}
	for _, tile := range tiles {
		if _, busy := c.migrating.Get(tile); busy {
			continue
		}
		dst := c.drainDest(i)
		if dst < 0 {
			break
		}
		c.migrateTile(tile, dst, MoveDrain)
	}
	c.clock.After(c.scanInterval, func() { c.drainTick(i) })
}

// finishDrain flushes the drained shard's remaining chunk copies and
// retires it, re-entering the drain loop if a session or tile appeared
// while the flush was in flight.
func (c *Cluster) finishDrain(i int) {
	c.shards[i].FlushOwnedChunks(nil, func() {
		if c.stopped || !c.draining[i] {
			return
		}
		if !c.table.Alive(i) {
			delete(c.draining, i)
			return
		}
		if len(c.ownedTiles(i)) > 0 || c.shards[i].PlayerCount() > 0 || c.hasSessions(i) {
			c.clock.After(c.scanInterval, func() { c.drainTick(i) })
			return
		}
		before := c.table.Clone()
		if !c.table.Retire(i) {
			delete(c.draining, i)
			return
		}
		c.reloadGained(before, -1) // dead shards' tiles reroute over fewer survivors
		delete(c.draining, i)
		c.persistTable()
		c.shards[i].Stop()
		if c.cfg.OnRetire != nil {
			c.cfg.OnRetire(i)
		}
		c.noteShardsActive()
		c.record(Record{Kind: ScaleDown, Shard: i, Epoch: c.table.Epoch()})
		c.record(Record{Kind: Retire, Shard: i, Epoch: c.table.Epoch()})
	})
}

// hasSessions reports whether any cluster session is currently attached
// to shard i (including handoffs in flight out of it).
func (c *Cluster) hasSessions(i int) bool {
	for _, p := range c.order {
		if p.shard == i {
			return true
		}
	}
	return false
}

// drainDest picks where a draining shard's next tile goes: the alive,
// non-draining shard with the lowest recent tick load, lowest index on
// ties.
func (c *Cluster) drainDest(i int) int {
	best, bestLoad := -1, time.Duration(0)
	for s := range c.shards {
		if s == i || !c.table.Alive(s) || c.draining[s] {
			continue
		}
		l := c.shardLoad(s)
		if best < 0 || l < bestLoad {
			best, bestLoad = s, l
		}
	}
	return best
}

// noteShardsActive samples the alive shard count into the ShardsActive
// series whenever it changed (and tracks the peak). Called from every
// lifecycle transition, so the series is the scale trajectory.
func (c *Cluster) noteShardsActive() {
	n := c.table.AliveCount()
	c.ShardsPeak = max(c.ShardsPeak, n)
	if c.ShardsActive.Len() == 0 || c.lastActiveCount != n {
		c.ShardsActive.Add(c.clock.Now(), time.Duration(n))
		c.lastActiveCount = n
	}
}

// autoscalerTick is one policy check. Ordering matters for determinism:
// rates first (they feed every decision), then health re-admission, then
// at most one scale/spread decision per tick.
func (c *Cluster) autoscalerTick() {
	if c.stopped {
		return
	}
	defer c.clock.After(autoscaleInterval, c.autoscalerTick)
	now := c.clock.Now()
	rates, projected := c.updateTileRates(now)
	c.noteShardsActive()

	// Health: a quarantined shard whose probation expired is re-admitted.
	for i := range c.shards {
		if !c.recoverWanted[i] {
			continue
		}
		if c.tracker != nil && c.tracker.Quarantined(i, now) {
			continue
		}
		delete(c.recoverWanted, i)
		if c.RecoverShard(i) {
			c.record(Record{Kind: Readmit, Shard: i, Epoch: c.table.Epoch()})
		}
	}

	// Stability: let in-flight migrations and drains land before deciding.
	if c.migrating.Len() > 0 || len(c.draining) > 0 {
		return
	}
	alive := c.table.AliveCount()
	cap := c.auto.ShardCapacity
	var total, totalProj float64
	for _, r := range rates {
		total += r.Rate
	}
	for _, r := range projected {
		totalProj += r.Rate
	}

	// Scale up when projected utilization crosses the high band: the
	// derivative projection fires while the crowd is still forming. The
	// up-cooldown also gates against the last scale-down: a retirement's
	// drain flushes every dirty chunk, and that store burst reads as a
	// one-tick demand spike that would otherwise whipsaw the policy
	// straight back up.
	if alive < c.auto.MaxShards && now-c.lastScaleUp >= upCooldown &&
		now-c.lastScaleDown >= upCooldown &&
		totalProj/(float64(alive)*cap) > HighUtil {
		idx := c.AddShard()
		if idx >= 0 {
			c.lastScaleUp = now
			for _, mv := range PlanBalance(rates, c.planCandidates(), c.topo.Index, maxMoves) {
				c.migrateTile(mv.Tile, mv.To, MoveScaleUp)
			}
			return
		}
	}

	// Proactive spreading: some shard's projected load exceeds its high
	// band while the cluster as a whole is fine — rebalance the forming
	// hotspot before latency degrades. PlanBalance only emits strict
	// post-move-max improvements, so a balanced cluster plans nothing.
	if c.shardOverloaded(projected, cap) {
		plan := PlanBalance(projected, c.planCandidates(), c.topo.Index, maxMoves)
		if len(plan) > 0 {
			for _, mv := range plan {
				c.migrateTile(mv.Tile, mv.To, MoveSpread)
			}
			c.record(Record{Kind: Spread, Shard: plan[0].From, N: int32(len(plan)), Epoch: c.table.Epoch()})
			return
		}
	}

	// Scale down when demand would stay under the low band even on one
	// fewer shard (the projected rate guards against shrinking into a
	// rising wave). Highest-index added shard drains first.
	if alive > c.auto.MinShards && now-c.lastScaleDown >= c.auto.DownCooldown &&
		now-c.lastScaleUp >= c.auto.DownCooldown {
		if max(total, totalProj)/(float64(alive-1)*cap) < c.auto.LowUtil {
			if i := c.removeCandidate(); i >= 0 && c.RemoveShard(i) {
				c.lastScaleDown = now
			}
		}
	}
}

// updateTileRates differences the cumulative TileLoads signal into
// per-tile demand rates (cost units per second) and projects each rate
// along its derivative over the policy horizon. A tile's first
// observation only records its baseline (rate 0): cumulative cost since
// boot is not demand.
func (c *Cluster) updateTileRates(now time.Duration) (cur, proj []TileRate) {
	dt := (now - c.lastRateAt).Seconds()
	c.lastRateAt = now
	ahead := horizon.Seconds()
	for _, tl := range c.TileLoads() {
		total := tl.Actions + tl.Stores
		st, ok := c.rateState.Get(tl.Tile)
		if !ok {
			st = &tileRateState{lastTotal: total}
			c.rateState.Put(tl.Tile, st)
			cur = append(cur, TileRate{Tile: tl.Tile, Owner: tl.Owner})
			proj = append(proj, TileRate{Tile: tl.Tile, Owner: tl.Owner})
			continue
		}
		if total < st.lastTotal {
			// Counter regression (a rebuilt server whose history was not
			// adopted): re-baseline rather than report negative demand —
			// a negative rate here would echo as a derivative spike next
			// tick and whipsaw the policy.
			st.lastTotal, st.lastRate = total, 0
			cur = append(cur, TileRate{Tile: tl.Tile, Owner: tl.Owner})
			proj = append(proj, TileRate{Tile: tl.Tile, Owner: tl.Owner})
			continue
		}
		rate, deriv := 0.0, 0.0
		if dt > 0 {
			rate = float64(total-st.lastTotal) / dt
			deriv = (rate - st.lastRate) / dt
		}
		projected := max(rate+deriv*ahead, 0)
		st.lastTotal, st.lastRate = total, rate
		cur = append(cur, TileRate{Tile: tl.Tile, Owner: tl.Owner, Rate: rate})
		proj = append(proj, TileRate{Tile: tl.Tile, Owner: tl.Owner, Rate: projected})
	}
	return cur, proj
}

// planCandidates returns the shards a migration plan may route load
// onto: alive and not draining, ascending.
func (c *Cluster) planCandidates() []int {
	var out []int
	for i := range c.shards {
		if c.table.Alive(i) && !c.draining[i] {
			out = append(out, i)
		}
	}
	return out
}

// shardOverloaded reports whether some plan candidate's summed rate
// exceeds the high utilization band of one shard's capacity.
func (c *Cluster) shardOverloaded(rates []TileRate, cap float64) bool {
	load := make(map[int]float64)
	for _, r := range rates {
		load[r.Owner] += r.Rate
	}
	for _, i := range c.planCandidates() {
		if load[i] > HighUtil*cap {
			return true
		}
	}
	return false
}

// removeCandidate picks the shard a scale-down drains: the
// highest-index alive runtime-added shard, or -1 when only boot shards
// remain.
func (c *Cluster) removeCandidate() int {
	for i := len(c.shards) - 1; i >= c.table.Base(); i-- {
		if c.table.Alive(i) && !c.draining[i] {
			return i
		}
	}
	return -1
}
