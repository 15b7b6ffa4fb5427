// Package core assembles Servo: it wires the speculative execution unit
// (internal/servo/specexec), serverless terrain generation
// (internal/servo/tgen), and cached remote storage (internal/servo/rstore
// + tcache) into an MVE server (internal/mve) backed by a simulated FaaS
// platform and blob store.
//
// Each serverless component can be toggled independently, matching the
// L / S / L+S component matrix of the paper's Table I, so the same
// constructor builds every configuration the experiments compare.
package core

import (
	"time"

	"servo/internal/blob"
	"servo/internal/cluster"
	"servo/internal/faas"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/servo/rstore"
	"servo/internal/servo/specexec"
	"servo/internal/servo/tcache"
	"servo/internal/servo/tgen"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// SCFunctionName is the deployment name of the construct simulation
// function.
const SCFunctionName = "simulate-construct"

// Config selects which Servo components are serverless and their tuning.
type Config struct {
	// Seed drives terrain generation and, through the clock, everything
	// else.
	Seed int64
	// WorldType is "flat" or "default" (Table I).
	WorldType string
	// ViewDistance in blocks (0 → the 128-block default).
	ViewDistance int

	// Profile sets the cost profile; 0 → mve.ProfileServo.
	Profile mve.Profile

	// ServerlessSC offloads simulated constructs (paper §III-C).
	ServerlessSC bool
	// ServerlessTG offloads terrain generation (paper §III-D).
	ServerlessTG bool
	// ServerlessRS stores chunks in managed storage behind the
	// pre-fetching cache (paper §III-E). When false and LocalStore is
	// true, chunks persist to a local-disk-class store instead.
	ServerlessRS bool
	// LocalStore persists chunks locally when ServerlessRS is false
	// (the baselines' behaviour in the storage experiments).
	LocalStore bool

	// SpecExec tunes the speculative execution unit.
	SpecExec specexec.Config
	// TGMaxInflight bounds each shard's concurrent terrain invocations;
	// queued requests dispatch nearest-player-first as the window refills
	// (0 → tgen.DefaultMaxInflight).
	TGMaxInflight int
	// Remote, if non-nil, is used as the backing object store instead of
	// creating a fresh one — e.g. to restart a server over an existing
	// world (the Fig. 13 read phase).
	Remote *blob.Store
	// DisableCache bypasses the terrain cache for ServerlessRS (the
	// "Serverless" curve of Fig. 13).
	DisableCache bool
	// WrapStore, if non-nil, wraps the assembled chunk store before the
	// server boots (e.g. with a latency-measurement probe), so that even
	// boot-time world loading is observed. With shards it wraps every
	// shard's store.
	WrapStore func(mve.ChunkStore) mve.ChunkStore

	// Shards is the number of region shards the cluster boots (0 → 1):
	// one mve.Server per shard over a single shared substrate (one FaaS
	// platform with shared warm pools, one blob store), with cross-shard
	// player handoff (internal/cluster). One shard is the paper's single
	// game loop: a cluster whose only shard owns every tile.
	Shards int
	// Topology is the region tiling the cluster splits over its shards:
	// nil → 1-D X bands of world.DefaultBandChunks columns (the
	// compatibility default; world.BandTopology{BandChunks: n} picks
	// another width); a world.GridTopology cuts chunk space along both
	// axes.
	Topology world.Topology
	// Rebalance enables the cluster controller's live tile rebalancing:
	// when per-shard tick load drifts past RebalanceThreshold, tile
	// ownership migrates from the hottest to the coldest shard (idle
	// while the cluster has one shard).
	Rebalance bool
	// RebalanceThreshold is the load_imbalance trigger
	// (0 → cluster.DefaultRebalanceThreshold).
	RebalanceThreshold float64
	// RebalanceInterval is the controller check cadence
	// (0 → cluster.DefaultRebalanceInterval).
	RebalanceInterval time.Duration
	// Autoscale configures the cluster's elastic shard-count policy
	// subsystem: utilization-band scale-up/down over the per-tile cost
	// signal with predictive spreading and crash-loop quarantine (zero
	// value: disabled).
	Autoscale cluster.AutoscaleConfig
	// Visibility enables the cluster's interest-management layer:
	// avatars within the border margin of a tile boundary replicate to
	// the neighbouring shards as read-only ghost avatars, so players
	// near a seam see one continuous world (idle while the cluster has
	// one shard).
	Visibility bool
	// VisibilityMargin is the border margin in blocks
	// (0 → the view distance).
	VisibilityMargin int
	// CheckpointInterval, when positive, periodically persists every
	// session's snapshot through the shared store, so a shard failover
	// restores inventory even for players the handoff path never
	// persisted. Requires a storage backend and Shards > 1 (a one-shard
	// boot has no failover to restore from).
	CheckpointInterval time.Duration

	// Workers sizes the goroutine pool the virtual clock runs
	// same-timestamp ticks of distinct shards on (0 → 1). Every shard
	// game loop has a lane of the clock, with shared-substrate side
	// effects deferred to the deterministic post-wave commit drain, so
	// every pool size produces identical runs. The real-time clock has
	// no waves and ignores it.
	Workers int

	// PhaseLock re-aligns each shard's tick schedule to the global
	// TickInterval grid after an overlong tick, instead of letting the
	// shard drift off-phase forever. Saturated clusters then keep
	// forming same-timestamp waves, so the lane scheduler's parallelism
	// survives overload. Deterministic at every Workers setting.
	PhaseLock bool
}

// ShardComponents holds the per-shard component instances riding on the
// system-wide substrate: every shard has its own game loop, speculative
// execution unit, terrain backend, and pre-fetching cache, while the FaaS
// platform (and its warm pools) and the blob store are shared.
type ShardComponents struct {
	Server *mve.Server
	// SpecExec is this shard's speculative execution unit (nil unless
	// ServerlessSC).
	SpecExec *specexec.Manager
	// TGBackend is this shard's serverless terrain backend (nil unless
	// ServerlessTG).
	TGBackend *tgen.Backend
	// Cache and RStore are this shard's cached view of the shared remote
	// store (nil unless ServerlessRS with the cache enabled).
	Cache  *tcache.Cache
	RStore *rstore.Store
	// Pool is this shard's chunk freelist, shared by the game loop, the
	// store decode path, and the terrain backend.
	Pool *world.ChunkPool
}

// System is an assembled Servo (or baseline) instance: Config.Shards
// region shards (one by default) behind a Cluster.
type System struct {
	// Server is shard 0's game loop, Cluster.Shard(0) at boot. It and
	// SpecExec and TGBackend below alias Shards[0]'s fields. Outside
	// tests only the root package's Instance.Server and the frozen
	// benchmark/ harness read them; everything else starts, stops and
	// connects through Cluster and reads Shards. ROADMAP item 1(i)
	// retires them.
	Server   *mve.Server
	Platform *faas.Platform

	// Cluster starts, stops and routes players across the shards. Never
	// nil.
	Cluster *cluster.Cluster
	// Shards lists every shard's components in shard order (always at
	// least one entry).
	Shards []*ShardComponents

	// SpecExec is shard 0's speculative execution unit (nil unless
	// ServerlessSC): Shards[0].SpecExec.
	SpecExec *specexec.Manager
	// SCFn and TGFn are the deployed functions (nil if unused), shared by
	// every shard.
	SCFn *faas.Function
	TGFn *faas.Function
	// TGHandlerStats counts terrain-handler anomalies (malformed
	// generation requests) across the shared deployment (nil unless
	// ServerlessTG).
	TGHandlerStats *tgen.HandlerStats
	// GenCache is the shared cross-shard generation dedup cache (nil
	// unless serverless terrain boots more than one shard with dedup
	// enabled).
	GenCache *tgen.GenCache
	// TGBackend is shard 0's serverless terrain backend (nil unless
	// ServerlessTG): Shards[0].TGBackend.
	TGBackend *tgen.Backend

	// Remote is the shared object store (nil unless a store is
	// configured).
	Remote *blob.Store
}

// DefaultSCFnConfig returns the construct-simulation function
// configuration, calibrated so that one simulation step of the paper's
// 252-block construct costs ≈2.0 ms of single-vCPU time: §IV-G's anchor of
// ~488 steps/s for 252-block constructs.
func DefaultSCFnConfig() faas.Config {
	cfg := faas.DefaultConfig()
	probe := sc.BuildSized(252).Clone()
	units := probe.Step()
	if units <= 0 {
		units = 1
	}
	cfg.NsPerWorkUnit = time.Duration(2.0 * float64(time.Millisecond) / float64(units))
	return cfg
}

// DefaultTGFnConfig returns the terrain-generation function configuration:
// ~600 ms of single-vCPU time per default-world chunk (Fig. 11's anchor:
// sub-second generation at 10240 MB, >3 s at 320 MB).
func DefaultTGFnConfig() faas.Config {
	cfg := faas.DefaultConfig()
	units := (terrain.Default{}).WorkUnits()
	cfg.NsPerWorkUnit = time.Duration(600 * float64(time.Millisecond) / float64(units))
	cfg.ExecNoiseSigma = 0.18 // Fig. 11: wide boxes even at high memory
	// Terrain generation parallelises worse than the circuit simulator,
	// so memory configurations above ~2 vCPUs see diminishing returns
	// (Fig. 11b: cost-efficiency favors the small configurations).
	cfg.ParallelFrac = 0.7
	return cfg
}

// New assembles a system on the clock. With all serverless toggles off it
// builds a pure baseline server (profile-dependent), which is how the
// experiment harness constructs Opencraft and Minecraft. Every system is
// assembled the same way: one server per region shard over a single
// shared substrate — functions (and their warm pools) are registered once
// on one platform, every shard's cache flushes into the same blob store —
// behind a Cluster that starts, stops and routes players between them.
func New(clock sim.Clock, cfg Config) *System {
	sys := &System{}
	profile := cfg.Profile
	if profile == 0 {
		profile = mve.ProfileServo
	}
	shardCount := cfg.Shards
	if shardCount < 1 {
		shardCount = 1
	}
	// neighbours is what a one-shard boot lacks, and the only thing this
	// assembly branches on: with no second shard there is no home tile
	// apart from spawn to boot, no seam chunk a neighbour could have
	// generated first, and nobody to hand off or fail over to.
	neighbours := shardCount > 1
	if cfg.ServerlessSC || cfg.ServerlessTG {
		sys.Platform = faas.NewPlatform(clock)
	}

	// Shared substrate: deployed functions and the object store exist
	// once, regardless of the shard count.
	spec := cfg.SpecExec
	if cfg.ServerlessSC {
		sys.SCFn = sys.Platform.Register(SCFunctionName, DefaultSCFnConfig(), specexec.NewHandler())
		if spec.StepsPerInvocation == 0 {
			spec = specexec.DefaultConfig()
		}
	}
	if cfg.ServerlessTG {
		gen := terrain.ForWorldType(cfg.WorldType, cfg.Seed)
		sys.TGHandlerStats = &tgen.HandlerStats{}
		sys.TGFn = tgen.Register(sys.Platform, gen, DefaultTGFnConfig(), sys.TGHandlerStats)
		// Bordering shards adopt seam chunks a neighbour just generated
		// instead of re-invoking FaaS. One shard has nobody to adopt
		// from: a dedup cache there queues every request for adoption
		// and retains each published chunk's bytes for no reader
		// (`explore` live_heap_mb +5.1 %, bound 6 %).
		if neighbours {
			sys.GenCache = tgen.NewGenCache()
		}
	}
	if cfg.ServerlessRS || cfg.LocalStore {
		sys.Remote = cfg.Remote
		if sys.Remote == nil {
			// Managed storage is the paper's premium tier; the baselines
			// persist to local disk.
			tier := blob.TierLocal
			if cfg.ServerlessRS {
				tier = blob.TierPremium
			}
			sys.Remote = blob.NewStore(clock, tier)
		}
	}

	topo := cfg.Topology
	if topo == nil {
		topo = world.BandTopology{}
	}
	// On the virtual clock each shard's game loop runs on its own lane,
	// so same-timestamp ticks of distinct shards execute concurrently
	// while scans, the controller, and all substrate completions stay on
	// the serial lane. Lane ids are 1-based (lane 0 is the serial lane);
	// a recovered shard re-acquires its lane and continues the same RNG
	// stream. The wall clock has no waves: its shards share it.
	laneOf := func(int) sim.Clock { return clock }
	if loop, ok := clock.(*sim.Loop); ok {
		loop.SetWorkers(cfg.Workers)
		laneOf = func(i int) sim.Clock { return loop.Lane(i + 1) }
	}
	// buildShard assembles shard i's components. Called once per shard at
	// boot, and again by cluster.RecoverShard to build the replacement
	// process after a shard failure — then the fresh components replace
	// the crashed shard's entry in sys.Shards.
	buildShard := func(i int, region world.Region) *mve.Server {
		shard := &ShardComponents{}
		shardClock := laneOf(i)
		srvCfg := mve.Config{
			Profile:      profile,
			WorldType:    cfg.WorldType,
			Seed:         cfg.Seed,
			ViewDistance: cfg.ViewDistance,
			Region:       region,
			PhaseLock:    cfg.PhaseLock,
		}
		if neighbours {
			// Boot both spawn and the center of the shard's own home tile
			// (the middle of its space-filling run on finite topologies),
			// so shard-aware fleet placement does not open with a
			// generation storm. One shard owns every tile and boots spawn
			// alone, like the paper's single game loop: its "home" would
			// be a second area nobody stands in, whose boot-time loads
			// land in the storage figures (TestFig13CacheCutsTail fails).
			home := topo.Center(world.HomeTile(topo, shardCount, i))
			srvCfg.BootCenters = []world.BlockPos{{}, home}
		}
		// FaaS submissions from a shard lane go through the commit
		// buffer: the shared platform (warm pools, RNG-drawn latencies)
		// must see invocations in deterministic lane order, not wave
		// completion order.
		invoke := &commitInvoker{clock: shardClock, platform: sys.Platform}
		// One chunk freelist per shard, shared by the game loop (unload
		// and superseded-apply recycling), the store decode path, and the
		// terrain backend, so recycled chunks feed every decode.
		shard.Pool = world.NewChunkPool(0)
		srvCfg.ChunkPool = shard.Pool
		if cfg.ServerlessSC {
			shard.SpecExec = specexec.NewManager(invoke, SCFunctionName, spec)
			srvCfg.SC = &scAdapter{mgr: shard.SpecExec}
		}
		if cfg.ServerlessTG {
			shard.TGBackend = tgen.NewBackend(invoke, tgen.FunctionName)
			shard.TGBackend.SetMaxInflight(cfg.TGMaxInflight)
			shard.TGBackend.UseChunkPool(shard.Pool)
			if sys.GenCache != nil {
				shard.TGBackend.UseDedup(shardClock, sys.GenCache)
			}
			srvCfg.Terrain = shard.TGBackend
		}
		switch {
		case cfg.ServerlessRS:
			if cfg.DisableCache {
				srvCfg.Store = &uncachedStore{remote: sys.Remote, pool: shard.Pool}
			} else {
				shard.Cache = tcache.New(clock, sys.Remote, tcache.DefaultConfig())
				shard.Cache.StartFlusher()
				shard.RStore = rstore.New(shard.Cache)
				shard.RStore.UseChunkPool(shard.Pool)
				srvCfg.Store = shard.RStore
			}
		case cfg.LocalStore:
			srvCfg.Store = &uncachedStore{remote: sys.Remote, pool: shard.Pool}
		}
		if cfg.WrapStore != nil && srvCfg.Store != nil {
			srvCfg.Store = cfg.WrapStore(srvCfg.Store)
		}
		shard.Server = mve.NewServer(shardClock, srvCfg)
		if i < len(sys.Shards) {
			sys.Shards[i] = shard // failover rebuild replaces in place
		} else {
			sys.Shards = append(sys.Shards, shard)
		}
		return shard.Server
	}

	clCfg := cluster.Config{
		Shards:   shardCount,
		Topology: topo,
		Rebalance: cluster.RebalanceConfig{
			Enabled:   cfg.Rebalance,
			Threshold: cfg.RebalanceThreshold,
			Interval:  cfg.RebalanceInterval,
		},
		Visibility: cluster.VisibilityConfig{
			Enabled: cfg.Visibility,
			Margin:  cfg.VisibilityMargin,
		},
		Autoscale: cfg.Autoscale,
		// A retired shard's flusher stops like a failed shard's: the
		// drain already flushed everything it owned.
		OnRetire: func(i int) {
			if i < len(sys.Shards) {
				if ca := sys.Shards[i].Cache; ca != nil {
					ca.StopFlusher()
				}
			}
		},
	}
	// A one-shard boot keeps handoff state, the ownership table and
	// checkpoints in memory: it has nothing durable to resume. Its table
	// changes epoch only once AddShard grows it and Adopt refuses a
	// persisted table of another shard count, so Cluster.Start's read-back
	// would be a billed remote read whose answer is always discarded
	// (TestOneShardStartReadsNothingFromStorage).
	if sys.Remote != nil && neighbours {
		clCfg.Transfer = &blobTransfer{remote: sys.Remote}
		clCfg.TableStore = &blobTableStore{remote: sys.Remote}
		clCfg.Checkpoint = cfg.CheckpointInterval
	}
	sys.Cluster = cluster.New(clock, clCfg, buildShard)
	s0 := sys.Shards[0]
	sys.Server = s0.Server
	sys.SpecExec = s0.SpecExec
	sys.TGBackend = s0.TGBackend
	return sys
}

// commitInvoker is the FaaS submission surface shard components are
// built against (both a specexec.TickSource and a tgen.Invoker). It
// defers submissions to the lane's commit drain, so the shared platform
// processes them on the loop thread in ascending lane order regardless
// of wave scheduling; invocation callbacks then fire from platform events
// in serial context. On the wall clock sim.Commit is an immediate call.
type commitInvoker struct {
	clock    sim.Clock
	platform *faas.Platform
}

func (ci *commitInvoker) Invoke(name string, payload []byte, cb func(faas.Invocation)) {
	sim.Commit(ci.clock, func() { ci.platform.Invoke(name, payload, cb) })
}

// blobTransfer persists handoff snapshots under the player's storage key
// on the shared remote store: the handoff save doubles as the player's
// persisted record (the snapshot encoding is a superset of the player
// record), and retrying writes make brownouts delay-only.
type blobTransfer struct {
	remote *blob.Store
}

var _ cluster.Transfer = (*blobTransfer)(nil)

func (t *blobTransfer) Save(name string, data []byte, done func()) {
	t.remote.PutRetryingThen(rstore.PlayerKey(name), data, done)
}

func (t *blobTransfer) Load(name string, cb func(data []byte, ok bool)) {
	t.remote.GetRetrying(rstore.PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// OwnershipKey is the blob-store key of the persisted ownership table.
const OwnershipKey = "cluster/ownership"

// blobTableStore persists the cluster's ownership table on the shared
// remote store: every epoch change is written through with retries, so a
// brownout delays but never loses an ownership decision, and a cluster
// restarting over the same world resumes its ownership history.
type blobTableStore struct {
	remote *blob.Store
}

var _ cluster.TableStore = (*blobTableStore)(nil)

func (t *blobTableStore) SaveTable(data []byte) {
	t.remote.PutRetrying(OwnershipKey, data)
}

func (t *blobTableStore) LoadTable(cb func(data []byte, ok bool)) {
	t.remote.GetRetrying(OwnershipKey, func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// FailShard kills shard i: its cache flusher stops (a crashed process
// flushes nothing — unflushed dirty chunks are the failure's data loss,
// bounded by the flush interval), and the cluster crashes the loop,
// reroutes the shard's tiles, and re-admits its players from their last
// snapshots. Reports whether the failover ran (refused on the last alive
// shard).
func (sys *System) FailShard(i int) bool {
	if !sys.Cluster.FailShard(i) {
		return false
	}
	if c := sys.Shards[i].Cache; c != nil {
		c.StopFlusher()
	}
	return true
}

// RecoverShard rebuilds a failed shard over the persisted world: the
// cluster's ShardBuilder (buildShard above) constructs fresh components,
// replacing the crashed entry in sys.Shards, and the shard's tiles revert
// once the survivors' flushes land.
func (sys *System) RecoverShard(i int) bool {
	return sys.Cluster.RecoverShard(i)
}

// scAdapter adapts the speculative execution unit to mve.SCBackend.
type scAdapter struct {
	mgr *specexec.Manager
}

var _ mve.SCBackend = (*scAdapter)(nil)

func (a *scAdapter) Add(c *sc.Construct) uint64 { return a.mgr.Add(c) }
func (a *scAdapter) Remove(id uint64)           { a.mgr.Remove(id) }
func (a *scAdapter) Modify(id uint64, mutate func(*sc.Construct)) bool {
	return a.mgr.Modify(id, mutate)
}
func (a *scAdapter) Count() int { return a.mgr.Len() }

func (a *scAdapter) Tick(tick uint64) mve.SCTickWork {
	return mve.SCTickWork{WorkUnits: a.mgr.Tick(), Simulated: a.mgr.Len() > 0}
}

// NewBlobChunkStore returns an uncached chunk-and-player store backed
// directly by remote, the same store the baselines use for local
// persistence. The scenario harness uses it as the "local" side of
// runtime storage-backend flips.
func NewBlobChunkStore(remote *blob.Store) mve.ChunkStore {
	return &uncachedStore{remote: remote}
}

// uncachedStore is a direct blob-backed chunk store with no cache: the
// baselines' local persistence (TierLocal) and Fig. 13's uncached
// serverless configuration.
type uncachedStore struct {
	remote *blob.Store
	// pool recycles decoded chunks; nil falls back to plain allocation.
	pool *world.ChunkPool
}

var _ mve.ChunkStore = (*uncachedStore)(nil)
var (
	_ mve.BatchingChunkStore = (*uncachedStore)(nil)
	_ mve.CachingChunkStore  = (*rstore.Store)(nil)
)

func (u *uncachedStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	// GetRetrying: a false not-found would make the server regenerate and
	// overwrite the persisted chunk.
	u.remote.GetRetrying(tcache.Key(pos), func(data []byte, err error) {
		if err != nil {
			cb(nil, false)
			return
		}
		c := u.pool.Get(pos)
		// Sealed: storing it back unchanged rewrites this slice.
		if derr := c.LoadEncoded(data); derr != nil {
			u.pool.Put(c)
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

// LoadMany implements mve.BatchingChunkStore: each position takes the
// same retrying read path as Load, in the order given.
func (u *uncachedStore) LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool)) {
	for _, cp := range pos {
		cp := cp
		u.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// Store implements mve.ChunkStore. The blob store keeps the very slice
// Encoded returns, which is never written again, so an unchanged chunk is
// stored without encoding or copying anything.
func (u *uncachedStore) Store(c *world.Chunk) {
	u.remote.PutRetrying(tcache.Key(c.Pos), c.Encoded())
}

// StoreThen implements mve.SyncingChunkStore: done runs once data for
// the chunk is durably stored — even if a concurrent unload-path write
// superseded this one (ownership migrations gate the tile flip on it).
func (u *uncachedStore) StoreThen(c *world.Chunk, done func()) {
	u.remote.PutDurablyThen(tcache.Key(c.Pos), c.Encoded(), done)
}

// SavePlayer implements mve.PlayerStore.
func (u *uncachedStore) SavePlayer(name string, data []byte) {
	u.remote.PutRetrying(rstore.PlayerKey(name), data)
}

// LoadPlayer implements mve.PlayerStore. GetRetrying: a false "new
// player" would reset the player's persisted progress.
func (u *uncachedStore) LoadPlayer(name string, cb func([]byte, bool)) {
	u.remote.GetRetrying(rstore.PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}
