// Package cluster scales the MVE horizontally: a Cluster partitions chunk
// space into region tiles (1-D X bands or 2-D grid tiles, see
// world.Topology), runs one mve.Server per shard on the shared virtual
// clock, and routes player sessions to the shard owning their avatar's
// region. The serverless substrate — blob store,
// FaaS platform, warm pools — is shared across shards (one
// storage/compute layer, N game loops: the paper's architecture,
// multiplied); internal/core owns that wiring through a ShardBuilder
// callback, so this package depends only on mve and world.
//
// Region ownership is runtime state, not boot configuration: a shared
// world.OwnershipTable (tile → owning shard, versioned by an epoch
// counter, persisted through the storage substrate) backs every shard's
// region view, and a controller loop (controller.go) migrates tile
// ownership between shards when tick load drifts out of balance, and
// fails a killed shard's tiles and players over to the survivors.
//
// Cross-shard handoff: a periodic scan detects avatars that crossed a
// region boundary (with one scan of hysteresis against boundary
// oscillation) and transfers the session — the player snapshot is saved
// through the cluster's Transfer (the shared storage substrate, with
// retrying writes, so a brownout delays but never loses state), restored
// on the target shard, and admitted there. The wall between eviction and
// admission is the handoff latency, recorded per transfer. Ownership
// migration and failover reuse the same machinery: after an epoch change,
// resident players simply look foreign to the scan and follow their tile
// to its new owner.
package cluster

import (
	"slices"
	"time"

	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/world"
)

// DefaultScanInterval is how often the cluster checks avatars against
// region boundaries: every 5 ticks.
const DefaultScanInterval = 5 * mve.TickInterval

// ShardBuilder constructs shard i's server owning region. internal/core
// supplies a builder that wires every shard onto one shared serverless
// substrate.
type ShardBuilder func(shard int, region world.Region) *mve.Server

// Transfer persists handoff state through the cluster's storage
// substrate, keyed by player name. Save must survive transient storage
// faults (retry until the write lands) and call done exactly once; Load
// reports ok=false only for genuinely absent records. A nil Transfer
// makes handoff an in-memory move with zero latency (no store
// configured).
type Transfer interface {
	Save(name string, data []byte, done func())
	Load(name string, cb func(data []byte, ok bool))
}

// TableStore persists the ownership table through the cluster's storage
// substrate. Save must survive transient faults (retry until the write
// lands); Load reports ok=false only for a genuinely absent table. A nil
// TableStore keeps the table in memory only.
type TableStore interface {
	SaveTable(data []byte)
	LoadTable(cb func(data []byte, ok bool))
}

// Config configures a Cluster.
type Config struct {
	// Shards is the number of region shards (required, >= 1).
	Shards int
	// Topology is the region tiling (nil → the default band topology,
	// world.BandTopology{}).
	Topology world.Topology
	// Transfer persists handoff state; nil moves state in memory.
	Transfer Transfer
	// TableStore persists the ownership table; nil keeps it in memory.
	TableStore TableStore
	// Rebalance configures the controller loop (zero value: disabled).
	Rebalance RebalanceConfig
	// Autoscale configures the elastic shard-count policy subsystem
	// (zero value: disabled; see autoscaler.go).
	Autoscale AutoscaleConfig
	// OnRetire, when non-nil, runs after a drained shard is retired —
	// internal/core stops the shard's cache flusher through it, the same
	// teardown FailShard performs for a crashed shard.
	OnRetire func(shard int)
	// Visibility configures the interest-management layer: border-tile
	// avatar replication across shards (zero value: disabled).
	Visibility VisibilityConfig
	// Checkpoint is the periodic player-checkpoint cadence: every
	// interval, each session's snapshot is persisted through Transfer so
	// a shard failover restores inventory even for players that never
	// crossed a boundary (0 disables; requires a Transfer).
	Checkpoint time.Duration
}

// PlayerID is a cluster-global player identity, stable across handoffs
// (shard-level mve.PlayerIDs change when a session moves).
type PlayerID uint64

// Player is a cluster-level session handle. The fields every
// visibility scan reads for every session come first.
type Player struct {
	shard int
	// key is the player name's interned key, which finds the name's
	// ghosts in the shards' registries.
	key int
	// sess is the shard-level session while one hosts the player, nil
	// while it is in flight: set at join and at each admission (handoff,
	// failover), cleared at eviction, at the start of a failover and at
	// drop.
	sess *mve.Player
	// vc is the session's cached border membership (see visibility.go);
	// the visibility scan recomputes it only when position, host shard,
	// or ownership epoch changed.
	vc visCache

	ID       PlayerID
	Name     string
	behavior mve.Behavior
	// pendingShard is the boundary-scan hysteresis state: a handoff
	// starts only when two consecutive scans agree on the same foreign
	// shard, so an avatar oscillating on a tile edge does not thrash.
	pendingShard int
	// inflight marks a handoff in progress (the session is on no shard
	// while its state crosses the storage substrate).
	inflight bool
	// closed marks a disconnect issued mid-handoff; the transfer
	// completes by persisting the state instead of admitting it.
	closed bool
	// lastPos is the avatar position at the most recent boundary scan:
	// the failover fallback when a player on a killed shard was never
	// persisted.
	lastPos world.BlockPos
}

// Shard returns the index of the shard currently hosting the session
// (the source shard while a handoff is in flight).
func (p *Player) Shard() int { return p.shard }

// Cluster is a set of region shards behind one session router.
type Cluster struct {
	clock sim.Clock
	cfg   Config
	topo  world.Topology
	// table is the live ownership state every shard's region view reads.
	table *world.OwnershipTable
	// build rebuilds a shard server after failover (RecoverShard).
	build ShardBuilder
	// scanInterval is the boundary-scan and drain cadence:
	// DefaultScanInterval, unless an in-package test parks handoffs by
	// raising it before Start.
	scanInterval time.Duration

	shards     []*mve.Server
	transfer   Transfer
	tableStore TableStore

	// players is the look-up by id (Disconnect); order holds the same
	// sessions in join order, and every walk ranges over it.
	players map[PlayerID]*Player
	order   []*Player
	// scanOrder is the boundary scan's reused copy of order.
	scanOrder []*Player
	nextID    PlayerID
	// nameKeys interns player names: a name's key is its index in names.
	// The table grows by one entry per distinct name ever admitted and is
	// never pruned, so a key stays valid in every ghost registry; the
	// store keeps a player record per name too, so this is the same
	// order of growth.
	nameKeys map[string]int
	names    []string

	running bool
	stopped bool

	// Controller state (see controller.go).
	reb RebalanceConfig
	// hotStreak counts consecutive over-threshold controller checks (the
	// rebalancer's two-check hysteresis, mirroring the handoff scan's).
	hotStreak int
	// migrating marks tiles whose ownership flush is in flight.
	migrating world.ChunkMap[world.TileID, struct{}]

	// Autoscaler state (see autoscaler.go).
	auto AutoscaleConfig
	// tracker records per-shard crash history (nil unless autoscaling is
	// enabled, so failover semantics are unchanged without it).
	tracker *failureTracker
	// draining marks shards being emptied toward retirement.
	draining map[int]bool
	// recoverWanted marks shards whose RecoverShard was refused by
	// quarantine; the autoscaler re-admits them once probation expires.
	recoverWanted map[int]bool
	// rateState holds per-tile demand-rate history between policy ticks.
	rateState  world.ChunkMap[world.TileID, *tileRateState]
	lastRateAt time.Duration
	// lastScaleUp / lastScaleDown drive the per-direction cooldowns.
	lastScaleUp   time.Duration
	lastScaleDown time.Duration
	// lastActiveCount is the most recent ShardsActive sample.
	lastActiveCount int

	// Journal records every control-plane event in occurrence order and
	// counts each kind (see journal.go).
	Journal Journal

	// Handoff metrics. Handoffs is the journal's Handoff count, kept as a
	// counter of its own because the end-to-end benchmark reads it.
	Handoffs       metrics.Counter
	HandoffLatency *metrics.Sample
	HandoffsIn     []metrics.Counter // per target shard
	HandoffsOut    []metrics.Counter // per source shard

	// ShardsActive samples the alive shard count at every change: the
	// scale trajectory, reported as a time series.
	ShardsActive *metrics.TimeSeries
	// ShardsPeak is the highest alive shard count seen.
	ShardsPeak int

	// Visibility state (see visibility.go).
	vis VisibilityConfig
	// visSeq numbers replication scans (ghost staleness stamps).
	visSeq uint64
	// fullRescan makes every scan recompute every session's border
	// membership: the reference the in-package tests and benchmarks
	// compare the membership cache against (ghost registries, journal and
	// gap audit are identical either way). Nothing outside the package can
	// set it.
	fullRescan bool
	// GhostUpdates counts digest entries applied to ghost registries
	// (not a journal kind: a refresh changes no registry membership).
	GhostUpdates metrics.Counter
	// VisibilityGaps counts replication scans during which some
	// cross-shard pair of avatars within view distance was not served by
	// a ghost (the visibility_gap_ticks metric).
	VisibilityGaps metrics.Counter
	// visRecomputes counts border-membership recomputations — the dirty
	// set's size summed over scans, where dirty means a membership input
	// changed (the chunk underfoot, the margin square's chunk rect, the
	// host shard, or the ownership epoch), not merely that the session
	// moved. Idle sessions and sessions pacing inside one chunk leave it
	// still: the incremental scan's observable win.
	visRecomputes metrics.Counter
	// digestsSent counts per-pair digests actually published, and
	// digestsSkipped those suppressed by the rate limiter: a pair whose
	// entry list is byte-identical to its last published digest under an
	// unchanged ownership epoch skips publication, capped at
	// digestMaxSkips consecutive skips so ghost staleness stamps keep
	// refreshing well inside the expiry TTL.
	digestsSent    metrics.Counter
	digestsSkipped metrics.Counter

	// Reused visibility-scan scratch (see visibility.go). visDisplaced
	// holds the displaced sessions' positions in visAll, and visSuspects
	// and visMissing the gap audit's suspects and their missing holders.
	visAll       []visSess
	visDisplaced []int
	visResidents []int
	visHosts     []uint64
	visSuspects  []int
	visMissing   []uint64
	visPairs     []visPairState // dense, see pairTable
	visBorders   []world.BorderNeighbor
}

// New builds a cluster of cfg.Shards servers via build. Shard servers are
// constructed in shard order, so builders drawing from the shared clock
// RNG stay deterministic.
func New(clock sim.Clock, cfg Config, build ShardBuilder) *Cluster {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Topology == nil {
		cfg.Topology = world.BandTopology{}
	}
	cfg.Rebalance = cfg.Rebalance.withDefaults()
	cfg.Autoscale = cfg.Autoscale.withDefaults(cfg.Shards)
	c := &Cluster{
		clock:          clock,
		cfg:            cfg,
		topo:           cfg.Topology,
		table:          world.NewOwnershipTable(cfg.Shards, cfg.Topology),
		build:          build,
		scanInterval:   DefaultScanInterval,
		transfer:       cfg.Transfer,
		tableStore:     cfg.TableStore,
		reb:            cfg.Rebalance,
		vis:            cfg.Visibility,
		auto:           cfg.Autoscale,
		draining:       make(map[int]bool),
		recoverWanted:  make(map[int]bool),
		players:        make(map[PlayerID]*Player),
		nameKeys:       make(map[string]int),
		HandoffLatency: metrics.NewSample(4096),
		Journal:        Journal{cap: DefaultLogRetention},
		ShardsActive:   &metrics.TimeSeries{},
	}
	if cfg.Autoscale.Enabled {
		c.tracker = newFailureTracker(failureTrackerConfig{probation: cfg.Autoscale.Probation})
	}
	for i := range cfg.Shards {
		c.join(i)
	}
	return c
}

// Epoch returns the current ownership epoch.
func (c *Cluster) Epoch() uint64 { return c.table.Epoch() }

// AliveCount returns the number of alive (neither dead nor retired)
// shards.
func (c *Cluster) AliveCount() int { return c.table.AliveCount() }

// TileCenter returns the block position at the center of a tile's
// canonical rectangle (tile-targeted fleet placement).
func (c *Cluster) TileCenter(t world.TileID) world.BlockPos { return c.topo.Center(t) }

// relayChat fans one chat message out across every live shard (cross-
// shard chat): each shard counts its local deliveries and the total is
// the sender's fan-out cost. In-flight sessions (mid-handoff) are on no
// shard and miss the message, exactly as they would miss any broadcast.
//
// src is the sending player's shard. Under lane-parallel execution chat
// actions run inside src's lane, so the cross-shard counter writes are
// deferred to src's commit drain; the recipient counts themselves are
// safe to read during the wave (session membership only changes in
// serial events) and cannot change before the drain runs.
func (c *Cluster) relayChat(src *mve.Server, from *mve.Player) int {
	total := 0
	for i, s := range c.shards {
		if !c.table.Alive(i) {
			continue
		}
		total += s.PlayerCount()
	}
	sim.Commit(src.Clock(), func() {
		for i, s := range c.shards {
			if !c.table.Alive(i) {
				continue
			}
			s.ChatsDelivered.Add(int64(s.PlayerCount()))
		}
	})
	return total
}

// Shard returns shard i's server.
func (c *Cluster) Shard(i int) *mve.Server { return c.shards[i] }

// Start starts every shard's game loop, the boundary scan (given a second
// shard), and (when enabled) the rebalance controller. A persisted
// ownership table is adopted asynchronously, so a cluster restarting over
// an existing world resumes its ownership history.
func (c *Cluster) Start() {
	if c.running {
		return
	}
	c.running = true
	for _, s := range c.shards {
		s.Start()
	}
	if c.tableStore != nil {
		// Adopting moves tiles like any ownership change: the shards that
		// lose one flush it first, and the gainers reload. An absent table
		// (nil bytes) adopts nothing.
		c.tableStore.LoadTable(func(data []byte, _ bool) {
			c.changeOwnership(func(t *world.OwnershipTable) bool { return t.Adopt(data) }, func(bool) {})
		})
	}
	// The boundary scan needs a boundary: it is armed once the table has
	// a second shard slot — here, or by the AddShard that creates it.
	// Armed on a one-shard table it found nothing and still cost the
	// ledger: one 50 ms slice in five gained a scan event, moving
	// `revisit` action_to_update_ms_p50 (an idle-slice median) +33 %,
	// `town` alloc_mb_per_vsec +4.2 % and vsec_per_wallsec −1 to −2 %.
	if c.table.Shards() > 1 {
		c.clock.After(c.scanInterval, c.scan)
	}
	c.lastRateAt = c.clock.Now()
	c.noteShardsActive()
	if c.reb.Enabled {
		c.clock.After(c.reb.Interval, c.controllerTick)
	}
	if c.auto.Enabled {
		c.clock.After(autoscaleInterval, c.autoscalerTick)
	}
	if c.vis.Enabled {
		c.clock.After(DefaultVisibilityInterval, c.visibilityScan)
	}
	if c.transfer != nil && c.cfg.Checkpoint > 0 {
		c.clock.After(c.cfg.Checkpoint, c.checkpointTick)
	}
}

// Stop halts the shards and the boundary scan.
func (c *Cluster) Stop() {
	c.stopped = true
	for _, s := range c.shards {
		s.Stop()
	}
}

// Connect joins a player at the world spawn point, routed to the shard
// owning spawn.
func (c *Cluster) Connect(name string, b mve.Behavior) *Player {
	return c.ConnectAt(name, b, world.BlockPos{})
}

// ConnectAt joins a player standing at pos, routed to the owning shard
// (shard-aware fleet placement). Persisted player data still overrides
// the position once the shard's store answers.
func (c *Cluster) ConnectAt(name string, b mve.Behavior, pos world.BlockPos) *Player {
	shard := c.table.ShardOfBlock(pos)
	key := c.intern(name)
	// A rejoining identity supersedes any stale ghost of its former life
	// on the joining shard (the real avatar is authoritative).
	if c.vis.Enabled && c.shards[shard].RemoveGhost(key) {
		c.record(Record{Kind: GhostPromote, Player: int32(key), Shard: shard})
	}
	sess := c.shards[shard].ConnectAt(name, b, float64(pos.X), float64(pos.Z))
	c.nextID++
	p := &Player{
		ID:           c.nextID,
		Name:         name,
		shard:        shard,
		sess:         sess,
		behavior:     b,
		pendingShard: shard,
		lastPos:      pos,
		key:          key,
	}
	c.players[p.ID] = p
	c.order = append(c.order, p)
	return p
}

// intern returns name's key, assigning the next one to a new name.
func (c *Cluster) intern(name string) int {
	key, ok := c.nameKeys[name]
	if !ok {
		key = len(c.names)
		c.nameKeys[name] = key
		c.names = append(c.names, name)
	}
	return key
}

// Home returns a spawn position inside shard i's default territory (see
// world.HomeTile).
func (c *Cluster) Home(i int) world.BlockPos {
	return c.topo.Center(world.HomeTile(c.topo, c.cfg.Shards, i))
}

// Disconnect removes a session wherever it currently lives, reporting
// whether the handle was known (false for a repeated disconnect). A
// disconnect racing an in-flight handoff is honoured when the transfer
// completes: the moved state is persisted rather than admitted, so
// nothing is lost.
func (c *Cluster) Disconnect(id PlayerID) bool {
	p, ok := c.players[id]
	if !ok {
		return false
	}
	if p.inflight {
		p.closed = true
		return true
	}
	c.shards[p.shard].Disconnect(p.sess.ID)
	c.drop(p)
	return true
}

// drop removes the handle from the routing tables.
func (c *Cluster) drop(p *Player) {
	delete(c.players, p.ID)
	i := slices.Index(c.order, p)
	c.order = slices.Delete(c.order, i, i+1)
	p.sess = nil
}

// HandleOf finds the handle behind a shard-level session: by pointer
// first, and by name as a fallback for sessions that moved shards since
// the caller obtained the pointer (a handoff installs a fresh session
// object). The name fallback only applies when exactly one handle bears
// the name — with duplicates it returns nil rather than risk resolving
// to a different player's session.
func (c *Cluster) HandleOf(sess *mve.Player) *Player {
	var byName *Player
	nameMatches := 0
	for _, h := range c.order {
		if c.Session(h) == sess {
			return h
		}
		if h.Name == sess.Name {
			byName = h
			nameMatches++
		}
	}
	if nameMatches == 1 {
		return byName
	}
	return nil
}

// Players returns the live session handles in join order.
func (c *Cluster) Players() []*Player {
	return append(make([]*Player, 0, len(c.order)), c.order...)
}

// PlayerCount returns the number of live sessions (including in-flight
// handoffs).
func (c *Cluster) PlayerCount() int { return len(c.players) }

// Session returns the shard-level session behind a handle, or nil while
// the player is in flight (mid-handoff or mid-failover) and once it is
// disconnected.
func (c *Cluster) Session(p *Player) *mve.Player { return p.sess }

// SpawnConstruct activates a construct on the shard owning its anchor
// and returns (shard, id). Constructs never migrate: a construct stays on
// the shard that spawned it.
func (c *Cluster) SpawnConstruct(con *sc.Construct, anchor world.BlockPos) (int, uint64) {
	shard := c.table.ShardOfBlock(anchor)
	return shard, c.shards[shard].SpawnConstruct(con, anchor)
}

// scan walks every session in join order and starts handoffs for avatars
// that settled in a foreign region (two consecutive scans agreeing, the
// hysteresis against tile-edge oscillation).
func (c *Cluster) scan() {
	if c.stopped {
		return
	}
	// A synchronous handoff can drop a session from c.order mid-walk, so
	// the walk ranges over a copy, kept in reused scratch and cleared
	// after it so that it holds no departed session.
	c.scanOrder = append(c.scanOrder[:0], c.order...)
	for _, p := range c.scanOrder {
		if p.sess == nil {
			continue
		}
		p.lastPos = p.sess.Pos()
		// The live table, not the boot assignment: after a migration or
		// failover bumped the epoch, residents of a moved tile look
		// foreign here and follow their tile to its new owner through the
		// ordinary handoff machinery.
		want := c.table.ShardOfBlock(p.lastPos)
		if want == p.shard {
			p.pendingShard = p.shard
			continue
		}
		if want != p.pendingShard {
			p.pendingShard = want // first sighting: arm the hysteresis
			continue
		}
		c.handoff(p, want)
	}
	clear(c.scanOrder)
	c.clock.After(c.scanInterval, c.scan)
}

// handoff transfers a session from its current shard to dst: evict, save
// the player snapshot through the storage substrate, restore on dst,
// admit. With a nil Transfer the move is purely in memory.
func (c *Cluster) handoff(p *Player, dst int) {
	src := p.shard
	snap, ok := c.shards[src].EvictPlayer(p.sess.ID)
	if !ok {
		return
	}
	start := c.clock.Now()
	p.inflight, p.sess = true, nil
	// Visually seamless handoff: the evicted session leaves a pinned
	// ghost behind, so viewers on the source shard keep seeing the
	// avatar while its state crosses the storage substrate.
	c.demoteToGhost(p, src, snap.X, snap.Z)

	finish := func(restored mve.PlayerSnapshot) {
		p.inflight = false
		if !c.table.Alive(dst) {
			// The destination died while the state crossed the substrate:
			// re-route to whichever shard owns the position now (the
			// failover reassignment), exactly like a fresh admission.
			dst = c.table.ShardOfBlock(world.BlockPos{X: int(restored.X), Z: int(restored.Z)})
		}
		if p.closed {
			// Disconnected mid-handoff: the player record is already
			// persisted (when a Transfer exists). The avatar is gone for
			// good, so its ghosts must not linger pinned.
			c.dropGhosts(p)
			c.drop(p)
			return
		}
		sess := c.shards[dst].AdmitPlayer(restored)
		// The target's ghost promotes to the real avatar; the source's
		// pinned double unpins and rides the normal refresh/expiry cycle.
		c.promoteFromGhost(p, src, dst, restored.X, restored.Z)
		p.shard, p.sess, p.pendingShard = dst, sess, dst
		lat := c.clock.Now() - start
		c.Handoffs.Inc()
		c.HandoffLatency.Add(lat)
		c.HandoffsIn[dst].Inc()
		c.HandoffsOut[src].Inc()
		c.record(Record{Kind: Handoff, Player: int32(p.key), Shard: src, Peer: dst, Latency: lat})
	}

	if c.transfer == nil {
		finish(snap)
		return
	}
	data := mve.EncodeSnapshot(snap)
	c.transfer.Save(p.Name, data, func() {
		c.transfer.Load(p.Name, func(got []byte, ok bool) {
			restored := snap
			if ok {
				if dec, err := mve.DecodeSnapshot(got); err == nil {
					// Name and Behavior are carried in memory, not on
					// the wire.
					dec.Name, dec.Behavior = snap.Name, snap.Behavior
					restored = dec
				}
			}
			finish(restored)
		})
	})
}
