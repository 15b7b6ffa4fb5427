package mve

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"time"

	"servo/internal/metrics"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// ChunkStore is the whole storage contract a server runs on: the
// baselines persist to local disk, Servo to cached serverless storage
// (internal/servo/rstore), and the server calls every method of it —
// there is no fallback for a store that lacks one. Its parts keep their
// own names (BatchingChunkStore, SyncingChunkStore, AvatarObserver,
// PlayerStore) because the benchmark's store decorator, frozen with the
// rest of benchmark/, lists them one by one. CachingChunkStore is the one
// optional extension.
type ChunkStore interface {
	// Load fetches the chunk at pos; ok is false if it was never stored.
	Load(pos world.ChunkPos, cb func(c *world.Chunk, ok bool))
	// Store persists the chunk (asynchronously; write-back allowed).
	Store(c *world.Chunk)
	BatchingChunkStore
	SyncingChunkStore
	AvatarObserver
	PlayerStore
}

// BatchingChunkStore serves a whole tick's worth of loads in one call.
// The server coalesces every chunk requested between flushes into a
// single LoadMany — one substrate event per tick instead of one per
// chunk — and the store answers each position through cb exactly as Load
// would, in the order given.
type BatchingChunkStore interface {
	LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool))
}

// AvatarObserver is the pre-fetching part of the contract (Servo's
// terrain cache, §III-E); a store that does not pre-fetch ignores it.
// The server calls it once per demand scan with every resident avatar,
// then every ghost; terrain within viewDistance blocks of any of them
// should be made warm.
//
//   - The order of positions is significant: a store with a prefetch
//     budget serves earlier avatars first, and the order of the reads it
//     starts fixes their storage-latency draws. The server passes a
//     deterministic order (join order, then ghost order).
//   - The slice is the server's scratch buffer, reused after the call
//     returns: an observer must not retain it.
//   - An observer may skip any avatar it has proven settled (rstore
//     skips those whose surroundings hold nothing left to fetch), as long
//     as what it fetches, and in which order, is what visiting every
//     avatar would have fetched.
type AvatarObserver interface {
	ObserveAvatars(positions []world.BlockPos, viewDistance int)
}

// SyncingChunkStore is the completion-reporting write. Ownership
// migrations gate the ownership flip on the source shard's flush landing
// (FlushOwnedChunks), so a storage brownout delays a migration but never
// loses chunk state.
type SyncingChunkStore interface {
	// StoreThen persists the chunk and calls done once the write has
	// landed in backing storage (retrying through transient faults).
	StoreThen(c *world.Chunk, done func())
}

// CachingChunkStore is the one optional ChunkStore extension, for stores
// that keep what they read and write (a local cache in front of remote
// storage), resident in the world or not. It stays optional only because
// the benchmark's frozen store decorator does not forward it; its
// workloads never change ownership. A server that gains ownership of
// chunks forgets them (ReloadChunks): what it cached as a non-owner may
// predate the owner's writes. A server about to lose ownership of chunks
// flushes them (FlushOwnedChunks): a chunk it unloaded since its last
// write has that write only in the store's cache.
type CachingChunkStore interface {
	// ForgetWhere drops what the store holds for the positions pred
	// matches, so that its next Load of each reads backing storage, and
	// so does a read of one in flight.
	ForgetWhere(pred func(world.ChunkPos) bool)
	// FlushWhere writes the unflushed writes of the positions pred
	// matches through to backing storage and calls done once they have
	// landed (retrying through transient faults), at once when there are
	// none.
	FlushWhere(pred func(world.ChunkPos) bool, done func())
}

// Config configures a Server.
type Config struct {
	Profile Profile
	// WorldType is "flat" or "default" (Table I).
	WorldType string
	// Seed drives terrain generation (the clock owns simulation RNG).
	Seed int64
	// ViewDistance in blocks (default 128, the paper's default).
	ViewDistance int
	// SC overrides the profile's construct backend.
	SC SCBackend
	// Terrain overrides the profile's terrain backend.
	Terrain TerrainBackend
	// Store enables chunk persistence.
	Store ChunkStore
	// ChunkPool recycles Chunk allocations through the churn paths
	// (far-chunk unloads, superseded applies). Typically shared with the
	// store and terrain backend so recycled chunks feed their decode
	// paths. Nil disables recycling (plain allocation).
	ChunkPool *world.ChunkPool
	// Region is the slice of chunk space this server owns: a cluster
	// shard's view of the ownership table, or the zero value, which owns
	// everything (a bare server outside any cluster). A sharded server
	// still loads ghost chunks outside its region when players near a
	// boundary can see them, but only the owning shard persists a chunk,
	// so N shards over one storage substrate never write the same key.
	Region world.Region
	// BootCenters are the block positions whose surroundings (view
	// distance plus the unload margin) are loaded before the server opens.
	// Empty means the world spawn point. A cluster shard boots both spawn
	// and its own region's home band so shard-aware fleet placement does
	// not open with a generation storm.
	BootCenters []world.BlockPos
	// PhaseLock keeps the tick schedule phase-aligned through overload:
	// after an overlong tick (duration > TickInterval) the next tick
	// snaps to the next global TickInterval boundary instead of running
	// exactly one tick-duration later. Without it one overlong tick
	// phase-shifts the shard against its peers forever, so same-timestamp
	// waves — the parallel scheduler's unit of concurrency — degrade to
	// singletons exactly when the cluster saturates. Virtual-time
	// arithmetic only: byte-identical at every worker-pool size.
	PhaseLock bool
}

// The game loop's fixed rate and the QoS bound the paper defines on it.
const (
	// TickInterval is 1/R: the paper runs the loop at R = 20 Hz.
	TickInterval = 50 * time.Millisecond
	// QoSThreshold is the paper's tick-duration QoS bound: one tick.
	QoSThreshold = TickInterval
	// QoSFraction is the supported-players criterion: fewer than 5 % of
	// ticks may exceed QoSThreshold.
	QoSFraction = 0.05
)

// Defaults for Config fields, and the loop's other fixed parameters.
const (
	DefaultViewDistance = 128
	// maxChunkSendsPerTick throttles per-player chunk serialisation, as
	// real servers do.
	maxChunkSendsPerTick = 4
	// terrainScanPeriod is how often (in ticks) view-distance demand is
	// recomputed.
	terrainScanPeriod = 5
	// unloadScanPeriod is how often (in ticks) far chunks are unloaded.
	unloadScanPeriod = 100
	// unloadMargin keeps chunks loaded this far beyond view distance.
	unloadMargin = 32
	// bootGraceTicks is the start-up window during which chunk application
	// is free: world loading happens before the server opens to players,
	// so boot bursts must not register as giant first ticks.
	bootGraceTicks = 40
	// PrefetchMargin is how far beyond view distance Servo's store
	// pre-fetches (§III-E: "outside of, but close to, the player's view
	// distance").
	PrefetchMargin = 48
)

// haltedConstruct is a construct whose chunk was unloaded; its simulation
// is halted (§II-A) and resumes when the chunk reloads.
type haltedConstruct struct {
	construct *sc.Construct
	anchor    world.BlockPos
}

// placement is a live construct's place in the world: its grid cell
// (x, y) sits on the block at anchor + (x, 0, y).
type placement struct {
	id uint64
	haltedConstruct
	// owned has one bit per grid cell (y*w + x): the world block there
	// belongs to this construct. A construct spawned later over the same
	// block takes the bit (the last spawned wins), and breaking the block
	// clears it.
	owned []uint64
}

// cell returns the index of the grid cell on world block pos, if any.
func (p *placement) cell(pos world.BlockPos) (int, bool) {
	w, h := p.construct.Size()
	x, y := pos.X-p.anchor.X, pos.Z-p.anchor.Z
	if pos.Y != p.anchor.Y || x < 0 || x >= w || y < 0 || y >= h {
		return 0, false
	}
	return y*w + x, true
}

func (p *placement) owns(i int) bool { return p.owned[i/64]&(1<<(i%64)) != 0 }
func (p *placement) take(i int)      { p.owned[i/64] |= 1 << (i % 64) }
func (p *placement) cede(i int)      { p.owned[i/64] &^= 1 << (i % 64) }

// chunks returns the range of chunks the grid covers.
func (p *placement) chunks() (lo, hi world.ChunkPos) {
	w, h := p.construct.Size()
	return p.anchor.Chunk(), p.anchor.Offset(w-1, 0, h-1).Chunk()
}

// Server is one MVE instance: a world, its players, and the 20 Hz loop.
// It runs entirely on a sim.Clock; it is not safe for concurrent use (the
// clock serialises all access).
type Server struct {
	clock sim.Clock
	cfg   Config
	cost  CostParams

	world   *world.World
	scs     SCBackend
	terrain TerrainBackend
	store   ChunkStore

	// players is the look-up by id; playerOrder holds the same sessions in
	// join order, and every per-tick walk ranges over it.
	players     map[PlayerID]*Player
	playerOrder []*Player
	nextPlayer  PlayerID

	// Ghost registry (ghost.go): read-only avatars replicated from
	// neighbouring shards by the cluster's visibility bus.
	// ghosts is indexed by the cluster's name key; ghostOrder holds the
	// same ghosts in creation order.
	ghosts     []*GhostAvatar
	ghostOrder []*GhostAvatar
	nextGhost  int64

	// Per-tile cost attribution: actions and chunk stores keyed by the
	// region tile they happened in (nil topology — a bare server with the
	// zero Region, outside any cluster — disables attribution entirely).
	tileTopo  world.Topology
	tileCosts world.ChunkMap[world.TileID, TileCost]

	// Construct placement: every live construct, indexed by each chunk its
	// grid covers in spawn order (which construct owns a block is a
	// look-up there, see owner), and the constructs of unloaded chunks,
	// halted until their chunk reloads.
	placed world.ChunkMap[world.ChunkPos, []*placement]
	halted map[world.ChunkPos][]haltedConstruct

	// requested tracks chunk demand already in flight (store load or
	// generation) and is the only request de-duplicator: a position
	// enters in requestChunk and leaves only in applyChunk, so neither
	// the store nor the terrain backend sees it twice meanwhile.
	requested world.ChunkMap[world.ChunkPos, struct{}]
	// stale holds requested positions whose load or generation was in
	// flight when ReloadChunks gained them: the answer may predate the
	// previous owner's flush, so it is dropped on arrival and the chunk
	// read again (reread).
	stale world.ChunkMap[world.ChunkPos, struct{}]
	// loadedFromStore queues store-loaded chunks for on-loop application;
	// the backing array is reused across ticks.
	loadedFromStore []*world.Chunk
	// pendingLoads coalesces the chunk-load requests issued since the
	// last flush; flushChunkLoads turns the whole batch into one commit
	// and one LoadMany call instead of one substrate event per chunk.
	pendingLoads []world.ChunkPos
	loadFn       func()
	loadCB       func(pos world.ChunkPos, c *world.Chunk, ok bool)
	// storeBatch groups this tick's persistence writes into one commit
	// (flushFn); recycleBatch holds the chunks to return to the pool once
	// those writes have been issued (stores encode synchronously, so a
	// chunk is recyclable the moment its Store call returns).
	storeBatch   []*world.Chunk
	recycleBatch []*world.Chunk
	flushFn      func()
	pool         *world.ChunkPool
	// drainBuf is the reused per-tick terrain-drain slice (DrainAppend).
	drainBuf []*world.Chunk
	// newlyLoaded accumulates chunk positions applied since the last
	// demand scan: the only chunks a valid cursor's rect can newly show
	// (see scanTerrainDemand). newlySlots is their world slots, resolved
	// once a scan.
	newlyLoaded []world.ChunkPos
	newlySlots  []int
	// fullDemandRescan makes every scan re-walk every player's whole view
	// rect, the pre-incremental behaviour: the reference the in-package
	// tests compare the demand cursor against. Nothing outside the
	// package can set it.
	fullDemandRescan bool
	// stripWalks counts demand walks of a moved rect that looked up only
	// the chunks it gained, and demandLookups the World look-ups every
	// demand walk made: what the in-package tests hold the strip walk to.
	stripWalks, demandLookups int64

	// Reusable tick-loop scratch, so the steady-state tick allocates
	// nothing. obsBufs double-buffers the avatar positions handed to the
	// store's ObserveAvatars: the hand-off crosses a sim.Commit closure
	// that runs after the wave, so the buffer being filled next scan must
	// not be the one still referenced by the pending commit.
	obsBufs    [2][]world.BlockPos
	obsIdx     int
	obsPending []world.BlockPos
	obsFn      func()
	unloadPos  []world.BlockPos
	unloadAll  []world.ChunkPos
	unloadFar  []world.ChunkPos
	unloadHalt []*placement
	// tickFn is the stored tickOnce method value; rescheduling through it
	// avoids a closure allocation every tick.
	tickFn func()
	// commitHook, when set, is the last thing a tick commits (see
	// SetCommitHook).
	commitHook func()

	tick    uint64
	running bool
	stopped bool
	// dueAt is when the running tick was due: the loop's timetable. On the
	// virtual clock a tick runs at the instant it is due; on the wall clock
	// it runs late by timer slack, lock wait and its own work, and the next
	// timer is shortened by that much so the period stays TickInterval.
	dueAt sim.Time

	// chatRelay, when set, fans chat messages out beyond this server
	// (cluster-wide delivery); it returns the number of recipients for
	// cost accounting. Nil keeps the classic local fan-out.
	chatRelay func(from *Player) int

	// Metrics.
	TickDurations  *metrics.Sample
	TickSeries     *metrics.TimeSeries
	ChunksApplied  metrics.Counter
	ChunksSent     metrics.Counter
	ActionCount    metrics.Counter
	ChatsDelivered metrics.Counter
	// TerrainRecomputes counts full per-player demand-rect walks — the
	// incremental scan's cache-miss counter (the engine-tick sibling of
	// the cluster's border-membership recomputations).
	TerrainRecomputes metrics.Counter
	// ConstructsResumed counts halted constructs whose simulation resumed
	// because their chunk was reloaded (§II-A).
	ConstructsResumed metrics.Counter
}

// NewServer builds a server on clock. Zero-value config fields take the
// documented defaults; the profile defaults the cost table and backends.
func NewServer(clock sim.Clock, cfg Config) *Server {
	if cfg.Profile == 0 {
		cfg.Profile = ProfileOpencraft
	}
	if cfg.ViewDistance == 0 {
		cfg.ViewDistance = DefaultViewDistance
	}
	cost := Params(cfg.Profile)
	gen := terrain.ForWorldType(cfg.WorldType, cfg.Seed)
	s := &Server{
		clock:         clock,
		cfg:           cfg,
		cost:          cost,
		world:         world.New(),
		scs:           cfg.SC,
		terrain:       cfg.Terrain,
		store:         cfg.Store,
		players:       make(map[PlayerID]*Player),
		halted:        make(map[world.ChunkPos][]haltedConstruct),
		TickDurations: metrics.NewSample(16384),
		TickSeries:    &metrics.TimeSeries{},
	}
	s.tickFn = s.tickOnce
	s.pool = cfg.ChunkPool
	// Persistent closures for the per-tick batched commits, so the
	// steady-state tick allocates nothing. loadCB answers one position of
	// a batched load; loadFn issues the whole pending batch (one LoadMany
	// when the store supports it) and resets the buffer — it runs in
	// serial context (commit drain), strictly before the next tick's
	// appends on this shard's lane.
	s.loadCB = func(pos world.ChunkPos, c *world.Chunk, ok bool) {
		if s.reread(pos, c) {
			s.flushChunkLoads()
			return
		}
		if ok {
			s.loadedFromStore = append(s.loadedFromStore, c)
			return
		}
		s.terrain.Request(pos)
	}
	s.loadFn = func() {
		s.store.LoadMany(s.pendingLoads, s.loadCB)
		s.pendingLoads = s.pendingLoads[:0]
	}
	s.flushFn = func() {
		for _, c := range s.storeBatch {
			s.store.Store(c)
		}
		for i := range s.storeBatch {
			s.storeBatch[i] = nil
		}
		s.storeBatch = s.storeBatch[:0]
		for i, c := range s.recycleBatch {
			s.pool.Put(c)
			s.recycleBatch[i] = nil
		}
		s.recycleBatch = s.recycleBatch[:0]
	}
	if cfg.Region.Table != nil {
		s.tileTopo = cfg.Region.Table.Topology()
	}
	if s.scs == nil {
		s.scs = NewLocalSC(cost.SCEveryOtherTick)
	}
	if s.terrain == nil {
		s.terrain = NewLocalTerrain(clock, gen)
	}
	// Boot each boot region out to view distance plus the unload margin,
	// as production servers do: players joining at spawn must not trigger
	// a generation storm. Without persistent storage the regions are
	// generated synchronously; with a store they are loaded through the
	// normal storage path (a restarted server reads its world back),
	// which is where the boot-time cold reads of Fig. 13 come from.
	centers := cfg.BootCenters
	if len(centers) == 0 {
		centers = []world.BlockPos{{}}
	}
	for _, center := range centers {
		for _, pos := range world.ChunksWithin(center, cfg.ViewDistance+unloadMargin) {
			if s.world.Loaded(pos) {
				continue // overlapping boot centers
			}
			if s.store != nil {
				s.requestChunk(pos)
			} else {
				s.applyChunk(gen.Generate(pos), false)
			}
		}
	}
	s.flushChunkLoads()
	return s
}

// owned reports whether this server is the persisting owner of the chunk.
func (s *Server) owned(cp world.ChunkPos) bool { return s.cfg.Region.Contains(cp) }

// TileCost is the work one server attributed to a region tile: player
// actions processed there and chunk writes issued for its terrain — the
// per-tile load signal behind the resident-player proxy the controller
// uses today.
type TileCost struct {
	Actions, Stores int64
}

// TileCosts yields the per-tile attributed cost since boot (nothing for a
// bare server outside any cluster, which has no tiles), in no particular
// order.
func (s *Server) TileCosts() iter.Seq2[world.TileID, TileCost] {
	return s.tileCosts.All()
}

// AdoptTileCosts folds a predecessor server's per-tile cost accounting
// into this one (a shard rebuilt after failover, or a retired slot
// reused by a scale-up). Demand-rate consumers difference the
// cluster-summed signal over time, so a replacement server must not
// make the cumulative totals regress.
func (s *Server) AdoptTileCosts(costs iter.Seq2[world.TileID, TileCost]) {
	if s.tileTopo == nil {
		return
	}
	for t, c := range costs {
		own, _ := s.tileCosts.Get(t)
		own.Actions += c.Actions
		own.Stores += c.Stores
		s.tileCosts.Put(t, own)
	}
}

// noteAction attributes one processed action to the acting avatar's tile.
func (s *Server) noteAction(pos world.BlockPos) {
	if s.tileTopo != nil {
		t := s.tileTopo.TileOf(pos.Chunk())
		c, _ := s.tileCosts.Get(t)
		c.Actions++
		s.tileCosts.Put(t, c)
	}
}

// noteStore attributes one chunk write to the chunk's tile.
func (s *Server) noteStore(cp world.ChunkPos) {
	if s.tileTopo != nil {
		t := s.tileTopo.TileOf(cp)
		c, _ := s.tileCosts.Get(t)
		c.Stores++
		s.tileCosts.Put(t, c)
	}
}

// Clock returns the server's clock.
func (s *Server) Clock() sim.Clock { return s.clock }

// World returns the server's loaded world.
func (s *Server) World() *world.World { return s.world }

// Config returns the server's effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Tick returns the current tick number.
func (s *Server) Tick() uint64 { return s.tick }

// SCs returns the construct backend.
func (s *Server) SCs() SCBackend { return s.scs }

// Start begins the game loop. It may be called once.
func (s *Server) Start() {
	if s.running {
		return
	}
	s.running = true
	s.dueAt = s.clock.Now() + TickInterval
	s.clock.After(TickInterval, s.tickFn)
}

// SetCommitHook installs fn to run once per tick, last, through
// sim.Commit: inline at the end of the tick on a plain or wall clock, in
// the serial post-wave drain (after the tick's own store and observer
// commits) on a lane clock. It is how the network layer learns that a
// tick's effects are visible. There is one slot; nil removes the hook, and
// a server without one schedules and draws nothing extra.
func (s *Server) SetCommitHook(fn func()) { s.commitHook = fn }

// Stop halts the game loop after the current tick.
func (s *Server) Stop() { s.stopped = true }

// Crash models the shard process dying mid-run: the loop halts and every
// in-memory session is dropped — their state survives only as far as it
// was persisted. A crashed server stays inert; shard failover builds a
// replacement over the persisted world instead of restarting it
// (cluster.RecoverShard).
func (s *Server) Crash() {
	s.stopped = true
	s.players = make(map[PlayerID]*Player)
	s.playerOrder = nil
	s.ghosts = nil
	s.ghostOrder = nil
}

// SetChatRelay installs a cluster-wide chat fan-out: chat actions deliver
// through relay (which returns the recipient count) instead of to this
// server's local players only.
func (s *Server) SetChatRelay(relay func(from *Player) int) { s.chatRelay = relay }

// FlushOwnedChunks persists every chunk this server owns matching pred
// (nil matches all), calling done once after every write has landed: each
// loaded one, and, through a CachingChunkStore, each unloaded one whose
// last write still waits in the store's cache. The writes retry through
// fault windows before done fires (StoreThen) — the guarantee an
// ownership change needs before it gives a tile to a new owner. With
// nothing to write, done runs before FlushOwnedChunks returns.
func (s *Server) FlushOwnedChunks(pred func(world.ChunkPos) bool, done func()) {
	if done == nil {
		done = func() {}
	}
	if s.store == nil {
		done()
		return
	}
	match := func(cp world.ChunkPos) bool { return s.owned(cp) && (pred == nil || pred(cp)) }
	chunks := s.world.LoadedChunks()
	// Deterministic write order: the store draws latency and fault
	// outcomes from the clock RNG per operation.
	slices.SortFunc(chunks, byXZ)
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	for _, cp := range chunks {
		if !match(cp) {
			continue
		}
		c := s.world.Chunk(cp)
		s.noteStore(cp)
		pending++
		s.store.StoreThen(c, finish)
	}
	if cs, ok := s.store.(CachingChunkStore); ok {
		pending++
		cs.FlushWhere(match, finish)
	}
	finish()
}

// ReloadChunks drops this server's copies of the chunks pred matches and
// reads them again from the store, returning how many it dropped. A shard
// calls it when it gains ownership of chunks (cluster migration and
// failover): a copy it held as a non-owner never saw the owner's edits,
// which the owner's flush put in storage before the flip. The store
// forgets what it cached of every matching chunk, resident or not
// (CachingChunkStore), and a load or generation already in flight for a
// matching chunk is read again once it lands, because it may have read
// storage before that flush. It must run in serial context. Without a
// store there is nothing newer to read.
func (s *Server) ReloadChunks(pred func(world.ChunkPos) bool) int {
	if s.store == nil {
		return 0
	}
	if f, ok := s.store.(CachingChunkStore); ok {
		f.ForgetWhere(pred)
	}
	for cp := range s.requested.All() {
		if pred(cp) {
			s.stale.Put(cp, struct{}{})
		}
	}
	chunks := s.world.LoadedChunks()
	slices.SortFunc(chunks, byXZ) // deterministic read order, as FlushOwnedChunks' writes
	n := 0
	for _, cp := range chunks {
		if !pred(cp) {
			continue
		}
		s.pool.Put(s.evict(cp))
		s.requestChunk(cp)
		n++
	}
	s.flushChunkLoads()
	return n
}

// reread reports whether pos is stale (see Server.stale) and, if so, drops
// c, the answer that may predate the previous owner's flush, and queues
// pos's load again; pos stays requested.
func (s *Server) reread(pos world.ChunkPos, c *world.Chunk) bool {
	if s.stale.Len() == 0 {
		return false
	}
	if _, ok := s.stale.Delete(pos); !ok {
		return false
	}
	s.pool.Put(c)
	s.pendingLoads = append(s.pendingLoads, pos)
	return true
}

// SpawnConstruct activates a simulated construct whose grid cell (0, 0)
// maps to the anchor block position (cells extend along +X and +Z on the
// terrain surface). It owns the blocks of its non-empty cells, taking them
// from any construct spawned there before. Returns the construct id.
func (s *Server) SpawnConstruct(c *sc.Construct, anchor world.BlockPos) uint64 {
	id := s.scs.Add(c)
	w, h := c.Size()
	p := &placement{
		id:              id,
		haltedConstruct: haltedConstruct{construct: c, anchor: anchor},
		owned:           make([]uint64, (w*h+63)/64),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			k := c.At(x, y).Kind
			if k == sc.Empty {
				continue
			}
			bp := anchor.Offset(x, 0, y)
			if prev, i := s.owner(bp); prev != nil {
				prev.cede(i)
			}
			p.take(y*w + x)
			s.world.SetBlockAt(bp, world.Block{ID: blockForCell(k)})
		}
	}
	lo, hi := p.chunks()
	for cx := lo.X; cx <= hi.X; cx++ {
		for cz := lo.Z; cz <= hi.Z; cz++ {
			cp := world.ChunkPos{X: cx, Z: cz}
			ps, _ := s.placed.Get(cp)
			s.placed.Put(cp, append(ps, p))
		}
	}
	return id
}

// owner returns the live construct owning the world block at pos and the
// grid cell on it, or nil.
func (s *Server) owner(pos world.BlockPos) (*placement, int) {
	ps, _ := s.placed.Get(pos.Chunk())
	for _, p := range ps {
		if i, ok := p.cell(pos); ok && p.owns(i) {
			return p, i
		}
	}
	return nil, 0
}

// haltConstructs halts the constructs anchored in chunk cp (§II-A), in id
// order: each leaves the backend and the index, so the blocks it owned are
// nobody's, and waits in halted until cp reloads.
func (s *Server) haltConstructs(cp world.ChunkPos) {
	halt := s.unloadHalt[:0]
	ps, _ := s.placed.Get(cp)
	for _, p := range ps {
		if p.anchor.Chunk() == cp {
			halt = append(halt, p)
		}
	}
	slices.SortFunc(halt, func(a, b *placement) int { return cmp.Compare(a.id, b.id) })
	for i, p := range halt {
		s.halted[cp] = append(s.halted[cp], p.haltedConstruct)
		s.scs.Remove(p.id)
		lo, hi := p.chunks()
		for cx := lo.X; cx <= hi.X; cx++ {
			for cz := lo.Z; cz <= hi.Z; cz++ {
				at := world.ChunkPos{X: cx, Z: cz}
				ps, _ := s.placed.Get(at)
				if rest := slices.DeleteFunc(ps, func(q *placement) bool { return q == p }); len(rest) > 0 {
					s.placed.Put(at, rest)
				} else {
					s.placed.Delete(at)
				}
			}
		}
		halt[i] = nil
	}
	s.unloadHalt = halt[:0]
}

// resumeConstructs respawns the constructs halted in chunk cp.
func (s *Server) resumeConstructs(cp world.ChunkPos) {
	hs := s.halted[cp]
	delete(s.halted, cp)
	for _, h := range hs {
		s.SpawnConstruct(h.construct, h.anchor)
		s.ConstructsResumed.Inc()
	}
}

func blockForCell(k sc.CellKind) world.BlockID {
	switch k {
	case sc.Wire:
		return world.Wire
	case sc.Source:
		return world.Battery
	case sc.Lamp:
		return world.Lamp
	case sc.Repeater:
		return world.Repeater
	case sc.Inverter:
		return world.Inverter
	}
	return world.Air
}

// --- The game loop -----------------------------------------------------------

// tickOnce runs one simulation tick and schedules the next.
func (s *Server) tickOnce() {
	if s.stopped {
		s.running = false
		return
	}
	s.tick++
	rng := s.clock.RNG()
	var work time.Duration
	work += s.cost.TickBase

	// 1. Player behaviors produce actions; process them.
	dt := TickInterval.Seconds()
	for _, p := range s.playerOrder {
		work += s.cost.PerPlayer
		if p.behavior != nil {
			for _, a := range p.behavior.Actions(rng, p, s) {
				work += s.processAction(p, a)
			}
		}
		p.advance(dt)
	}

	// 2. Simulated constructs.
	scw := s.scs.Tick(s.tick)
	work += time.Duration(scw.WorkUnits) * s.cost.SCWorkNs
	n := s.scs.Count()
	if scw.Simulated && s.cost.SCDensityCubeNs > 0 {
		work += time.Duration(float64(n*n*n) * s.cost.SCDensityCubeNs)
	}
	if s.cost.ServoPerSC > 0 {
		work += time.Duration(n) * s.cost.ServoPerSC
	}

	// 3. Terrain demand, application, and sending.
	if s.tick%terrainScanPeriod == 0 {
		s.scanTerrainDemand()
	}
	work += s.applyCompletedChunks()
	work += s.drainSendQueues()
	busy, queued := s.terrain.Load()
	work += time.Duration(busy) * s.cost.GenInterferencePerWorker
	if queued > 500 {
		queued = 500
	}
	work += time.Duration(queued) * s.cost.GenQueuePressure

	// 4. Unload far terrain periodically.
	if s.tick%unloadScanPeriod == 0 {
		s.unloadFarChunks()
	}
	// Flush the tick's grouped persistence writes (generated terrain from
	// step 3, unloads from step 4) as one commit, then recycle the written
	// chunks. The writes reach shared substrate in the same per-chunk
	// order the old per-chunk commits used.
	if len(s.storeBatch) > 0 || len(s.recycleBatch) > 0 {
		sim.Commit(s.clock, s.flushFn)
	}

	// 5. Tick duration: work plus hardware noise and rare GC-like tails.
	d := time.Duration(float64(work) * math.Exp(s.cost.NoiseSigma*rng.NormFloat64()))
	tailP := s.cost.TailP + float64(len(s.players))*s.cost.TailPPerPlayer
	if rng.Float64() < tailP {
		d = time.Duration(float64(d) * (1 + rng.Float64()*(s.cost.TailScale-1)))
	}
	now := s.clock.Now()
	s.TickDurations.Add(d)
	s.TickSeries.Add(now, d)

	// 6. Next tick: on the timetable — one TickInterval after this tick
	// was due, however late it ran — or, after an overlong tick (an
	// overloaded server ticks back to back), d from now. With PhaseLock
	// the overlong reschedule snaps forward to the next global
	// TickInterval boundary, so shards that fell behind re-join the
	// cluster-wide wave instead of drifting off-phase forever. An overlong
	// tick, or one a whole period late, re-bases the timetable on the
	// clock: there is no catch-up burst.
	due := s.dueAt + TickInterval
	if d > TickInterval {
		due = now + d
		if s.cfg.PhaseLock {
			if rem := due % TickInterval; rem != 0 {
				due += TickInterval - rem
			}
		}
	} else if due <= now {
		due = now + TickInterval
	}
	s.dueAt = due
	s.clock.After(due-now, s.tickFn)
	if s.commitHook != nil {
		sim.Commit(s.clock, s.commitHook)
	}
}

// noRect is the empty chunk rect: a cold demand cursor has seen nothing.
var noRect = world.ChunkRectWithin(world.BlockPos{}, -1)

// scanTerrainDemand requests every chunk within any player's view distance
// that is neither loaded nor already requested, and refreshes send queues.
//
// The scan is incremental: each player caches the chunk rect its view
// distance resolved to at its last walk (the demand cursor). When a walk
// ends, every chunk in the rect is either known (queued for send) or in
// flight in s.requested; requests only leave that set by loading (tracked
// in s.newlyLoaded), and an unload of a chunk inside a cached rect
// invalidates the cursor (unloadFarChunks). So for the chunks a valid
// cursor's rect still covers, a full walk's only effect is to queue the
// ones applied since the previous scan, and walkDemand replays just those
// there and looks up only the chunks the rect gained: none for a clean
// cursor (unchanged rect), one 17-chunk strip for a one-chunk crossing at
// the default view distance. Dirty players — fresh sessions, handoff
// arrivals, chunk-rect crossings — count one TerrainRecomputes; only a
// cold cursor walks its whole rect. The request/send streams are
// byte-identical to the full rescan (fullDemandRescan is the in-package
// tests' cross-check).
func (s *Server) scanTerrainDemand() {
	avatars := s.obsBufs[s.obsIdx][:0]
	newly := s.newlyLoaded
	if len(newly) > 1 {
		slices.SortFunc(newly, byXZ)
	}
	s.newlySlots = s.newlySlots[:0]
	for _, cp := range newly {
		s.newlySlots = append(s.newlySlots, s.world.Slot(cp))
	}
	for _, p := range s.playerOrder {
		pos := p.Pos()
		avatars = append(avatars, pos)
		rect := world.ChunkRectWithin(pos, s.cfg.ViewDistance)
		seen := p.demandRect
		switch {
		case s.fullDemandRescan || !p.demandValid:
			seen = noRect
			s.TerrainRecomputes.Inc()
		case rect != seen:
			s.TerrainRecomputes.Inc()
			s.stripWalks++
		case len(newly) == 0:
			continue
		}
		s.walkDemand(p, rect, seen)
		p.demandRect, p.demandValid = rect, true
	}
	s.newlyLoaded = newly[:0]
	// Focus-aware backends (the serverless terrain backend's bounded
	// nearest-player-first dispatch) get the player positions; the backend
	// copies them, so handing over the scratch buffer is safe.
	if tf, ok := s.terrain.(TerrainFocus); ok {
		tf.SetFocus(avatars)
	}
	// One commit for the whole scan's chunk loads, queued ahead of the
	// prefetch observation below so the per-chunk storage order matches
	// the old per-chunk commits.
	s.flushChunkLoads()
	// Give pre-fetching stores the avatar positions (§III-E) — ghosts
	// included, so the terrain around an avatar approaching from a
	// neighbouring shard is warm before its handoff lands. The store
	// stack reaches shared substrate (remote blob reads), so the call
	// goes through the commit buffer on a lane clock; obsPending is read
	// by the persistent closure at drain time, and the buffer flip keeps
	// the next scan from clobbering it while queued.
	if s.store != nil {
		for _, g := range s.ghostOrder {
			avatars = append(avatars, g.Pos())
		}
		s.obsBufs[s.obsIdx] = avatars
		s.obsIdx = 1 - s.obsIdx
		s.obsPending = avatars
		if s.obsFn == nil {
			s.obsFn = func() {
				s.store.ObserveAvatars(s.obsPending, s.cfg.ViewDistance+PrefetchMargin)
			}
		}
		sim.Commit(s.clock, s.obsFn)
		return
	}
	s.obsBufs[s.obsIdx] = avatars
}

// ScanTerrainDemand runs one demand scan outside the tick cadence — the
// benchmark entry point (the game loop calls the scan on its own period).
func (s *Server) ScanTerrainDemand() { s.scanTerrainDemand() }

// walkDemand brings p's view of rect up to date in the full walk's order
// (X-major, Z ascending). Chunks inside seen, the rect of p's last walk,
// need only the replay of the ones applied since (sorted, so the replay
// keeps the walk's order); every other chunk is looked up.
func (s *Server) walkDemand(p *Player, rect, seen world.ChunkRect) {
	newly, slots := s.newlyLoaded, s.newlySlots
	i := 0
	zLo, zHi := max(rect.Min.Z, seen.Min.Z), min(rect.Max.Z, seen.Max.Z)
	for cx := rect.Min.X; cx <= rect.Max.X; cx++ {
		// The column's overlap with seen is [lo, hi]: empty (lo > hi) when
		// the column or its Z range lies outside seen.
		lo, hi := rect.Min.Z, rect.Min.Z-1
		if cx >= seen.Min.X && cx <= seen.Max.X && zLo <= zHi {
			lo, hi = zLo, zHi
		}
		for cz := rect.Min.Z; cz < lo; cz++ {
			s.demand(p, world.ChunkPos{X: cx, Z: cz})
		}
		// Skip to the first chunk applied since in the overlap.
		for ; i < len(newly) && (newly[i].X < cx || newly[i].X == cx && newly[i].Z < lo); i++ {
		}
		for ; i < len(newly) && newly[i].X == cx && newly[i].Z <= hi; i++ {
			if slot := slots[i]; slot >= 0 && !p.knows(slot) {
				p.queue(newly[i], slot)
			}
		}
		for cz := hi + 1; cz <= rect.Max.Z; cz++ {
			s.demand(p, world.ChunkPos{X: cx, Z: cz})
		}
	}
}

// demand looks cp up for p: a loaded chunk p does not know yet is queued
// for sending, a missing one requested.
func (s *Server) demand(p *Player, cp world.ChunkPos) {
	s.demandLookups++
	if slot := s.world.Slot(cp); slot >= 0 {
		if !p.knows(slot) {
			p.queue(cp, slot)
		}
		return
	}
	s.requestChunk(cp)
}

// requestChunk starts the load-or-generate path for one chunk. With a
// store the request is only queued; flushChunkLoads turns the queue into
// one batched commit per scan.
func (s *Server) requestChunk(cp world.ChunkPos) {
	if _, ok := s.requested.Get(cp); ok {
		return
	}
	s.requested.Put(cp, struct{}{})
	if s.store != nil {
		s.pendingLoads = append(s.pendingLoads, cp)
		return
	}
	s.terrain.Request(cp)
}

// flushChunkLoads issues every queued chunk load as one commit. The loads
// reach shared substrate and their callbacks run from storage-completion
// events (serial context), so touching per-shard state there is safe —
// exactly as the old per-chunk commits did, in the same per-chunk order,
// but costing one substrate event per scan instead of one per chunk.
func (s *Server) flushChunkLoads() {
	if s.store == nil || len(s.pendingLoads) == 0 {
		return
	}
	sim.Commit(s.clock, s.loadFn)
}

// applyCompletedChunks integrates generated and store-loaded chunks into
// the world and returns the work cost. Persistence writes for freshly
// generated terrain are grouped into the tick's store batch (one commit
// per tick, flushed by tickOnce) instead of one commit per chunk, and
// superseded chunks are recycled through the pool.
func (s *Server) applyCompletedChunks() time.Duration {
	var cost time.Duration
	apply := func(c *world.Chunk) bool {
		if s.world.Loaded(c.Pos) {
			return false // superseded (e.g. reloaded while generating)
		}
		s.applyChunk(c, true)
		if s.tick > bootGraceTicks {
			cost += s.cost.ChunkApply
		}
		s.ChunksApplied.Inc()
		return true
	}
	// A chunk that landed before its position was gained, and was read
	// or generated from a storage that may predate the gain, is read
	// again (reread) instead of applied.
	reread := false
	for i, c := range s.loadedFromStore {
		s.loadedFromStore[i] = nil
		if s.reread(c.Pos, c) {
			reread = true
		} else if !apply(c) {
			s.pool.Put(c)
		}
	}
	s.loadedFromStore = s.loadedFromStore[:0]
	s.drainBuf = s.terrain.DrainAppend(s.drainBuf[:0])
	for i, c := range s.drainBuf {
		s.drainBuf[i] = nil
		if s.reread(c.Pos, c) {
			reread = true
			continue
		}
		applied := apply(c)
		if s.store != nil && s.owned(c.Pos) {
			// Persist freshly generated terrain — superseded chunks
			// included, as before: their generation still happened and the
			// stored bytes are identical.
			s.noteStore(c.Pos)
			s.storeBatch = append(s.storeBatch, c)
			if !applied {
				s.recycleBatch = append(s.recycleBatch, c)
			}
		} else if !applied {
			s.pool.Put(c)
		}
	}
	if reread {
		s.flushChunkLoads()
	}
	return cost
}

// applyChunk installs a chunk and resumes any halted constructs in it.
func (s *Server) applyChunk(c *world.Chunk, countResume bool) {
	s.world.AddChunk(c)
	s.requested.Delete(c.Pos)
	s.newlyLoaded = append(s.newlyLoaded, c.Pos)
	if countResume {
		s.resumeConstructs(c.Pos)
	}
}

// sendCompactMin is the consumed-prefix length at which a send queue is
// compacted in place (once the prefix is also at least half the queue).
const sendCompactMin = 64

// sendKeepMax is the largest backing array a drained send queue keeps: a
// first view queues hundreds of chunks, a chunk crossing a strip of them.
const sendKeepMax = 64

// drainSendQueues serialises queued chunks to clients, a few per player per
// tick, and returns the work cost. The queue is a head-index ring over one
// backing array: popping advances sendHead instead of re-slicing, which
// would pin the consumed prefix for the array's lifetime, and the array is
// reused once drained (or compacted when the dead prefix dominates), unless
// it is larger than sendKeepMax.
func (s *Server) drainSendQueues() time.Duration {
	var cost time.Duration
	for _, p := range s.playerOrder {
		sent := 0
		for p.sendHead < len(p.sendQueue) && sent < maxChunkSendsPerTick {
			cp := p.sendQueue[p.sendHead]
			p.sendHead++
			if !s.world.Loaded(cp) {
				continue // unloaded before we could send it
			}
			cost += s.cost.ChunkSend
			p.ChunksReceived++
			s.ChunksSent.Inc()
			if p.receiver != nil {
				p.receiver.ReceiveChunk(s, cp)
			}
			sent++
		}
		switch {
		case p.sendHead == len(p.sendQueue) && cap(p.sendQueue) > sendKeepMax:
			p.sendQueue, p.sendHead = nil, 0
		case p.sendHead == len(p.sendQueue):
			p.sendQueue = p.sendQueue[:0]
			p.sendHead = 0
		case p.sendHead >= sendCompactMin && p.sendHead*2 >= len(p.sendQueue):
			n := copy(p.sendQueue, p.sendQueue[p.sendHead:])
			p.sendQueue = p.sendQueue[:n]
			p.sendHead = 0
		}
	}
	return cost
}

// unloadFarChunks persists and evicts chunks far outside every player's
// view distance, halting embedded constructs (§II-A). A chunk stays while
// some player is within ViewDistance+unloadMargin blocks of it; the
// positions are sorted by X once a scan, so each chunk tests only the
// players in its X band (anyWithin).
func (s *Server) unloadFarChunks() {
	if len(s.players) == 0 {
		return
	}
	limit := s.cfg.ViewDistance + unloadMargin
	byX := s.unloadPos[:0]
	for _, p := range s.playerOrder {
		byX = append(byX, p.Pos())
	}
	slices.SortFunc(byX, func(a, b world.BlockPos) int { return cmp.Compare(a.X, b.X) })
	s.unloadPos = byX
	far := s.unloadFar[:0]
	s.unloadAll = s.world.LoadedChunksAppend(s.unloadAll[:0])
	for _, cp := range s.unloadAll {
		if !anyWithin(byX, cp, limit) {
			far = append(far, cp)
		}
	}
	s.unloadFar = far
	slices.SortFunc(far, byXZ)
	for _, cp := range far {
		c := s.evict(cp)
		if s.store != nil && c != nil && s.owned(cp) {
			// The write joins the tick's grouped store commit; the chunk is
			// recycled inside that same commit, after its Store call.
			s.noteStore(cp)
			s.storeBatch = append(s.storeBatch, c)
			s.recycleBatch = append(s.recycleBatch, c)
		} else {
			// No pending write references the chunk: recycle it directly.
			s.pool.Put(c)
		}
	}
}

// evict removes the loaded chunk at cp, halting the constructs in it, and
// returns it. Every player forgets it, so a re-approach resends — before
// the next AddChunk can hand its freed slot to another chunk — and the
// demand cursor of any player whose cached rect held it is invalidated:
// that restores the cursor invariant (every rect chunk loaded-or-requested)
// the incremental scan relies on.
func (s *Server) evict(cp world.ChunkPos) *world.Chunk {
	s.haltConstructs(cp)
	slot := s.world.Slot(cp)
	c := s.world.RemoveChunk(cp)
	for _, p := range s.playerOrder {
		p.forget(slot)
		if p.demandValid && p.demandRect.Contains(cp) {
			p.demandValid = false
		}
	}
	return c
}

// byXZ orders chunk positions by X, then Z.
func byXZ(a, b world.ChunkPos) int {
	if a.X != b.X {
		return a.X - b.X
	}
	return a.Z - b.Z
}

// anyWithin reports whether some position of byX, sorted by X, lies within
// limit blocks of cp — cp.DistanceBlocks(pos) <= limit, which holds exactly
// when pos is inside the chunk's footprint grown by limit on every side. A
// binary search finds the first position of the chunk's X band; the walk
// stops at the band's end or the first position whose Z is in range too.
func anyWithin(byX []world.BlockPos, cp world.ChunkPos, limit int) bool {
	ox, oz := cp.X*world.ChunkSizeX, cp.Z*world.ChunkSizeZ
	i, _ := slices.BinarySearchFunc(byX, ox-limit, func(p world.BlockPos, x int) int { return cmp.Compare(p.X, x) })
	for ; i < len(byX) && byX[i].X <= ox+world.ChunkSizeX-1+limit; i++ {
		if z := byX[i].Z; z >= oz-limit && z <= oz+world.ChunkSizeZ-1+limit {
			return true
		}
	}
	return false
}

// MinViewMargin returns the smallest distance (over players) from an
// avatar to the closest missing chunk within its view range, the QoS
// metric of Fig. 10. With no players or no missing terrain it returns the
// configured view distance.
func (s *Server) MinViewMargin() int {
	min := s.cfg.ViewDistance
	for _, p := range s.playerOrder {
		pos := p.Pos()
		r := world.ChunkRectWithin(pos, s.cfg.ViewDistance)
		for cx := r.Min.X; cx <= r.Max.X; cx++ {
			for cz := r.Min.Z; cz <= r.Max.Z; cz++ {
				cp := world.ChunkPos{X: cx, Z: cz}
				if s.world.Loaded(cp) {
					continue
				}
				if d := cp.DistanceBlocks(pos); d < min {
					min = d
				}
			}
		}
	}
	return min
}
