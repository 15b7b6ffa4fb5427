// Package servo is the public API of the Servo reproduction: a serverless
// backend architecture for modifiable virtual environments (MVEs), after
// Donkervliet et al., "Servo: Increasing the Scalability of Modifiable
// Virtual Environments Using Serverless Computing", ICDCS 2023.
//
// The library bundles a complete MVE substrate (voxel world, 20 Hz game
// loop, players, procedural terrain, redstone-style simulated constructs),
// a simulated serverless platform (FaaS with cold starts and
// memory-proportional compute; blob storage with realistic latency tails),
// and Servo's three contributions on top:
//
//   - speculative offloading of simulated constructs to functions, with
//     logical-timestamp invalidation and loop detection (§III-C);
//   - serverless terrain generation with unbounded fan-out (§III-D);
//   - cached remote state storage with distance pre-fetching (§III-E).
//
// # Quick start
//
//	inst := servo.NewInstance(servo.Config{Seed: 1, WorldType: "flat", Servo: servo.AllServerless()})
//	inst.SpawnConstruct(servo.NewClockCircuit(), servo.At(4, 5, 4))
//	inst.Connect("alice", servo.BehaviorRandom)
//	inst.Run(5 * time.Minute)
//	fmt.Println(inst.TickStats())
//
// Instances run on a deterministic virtual clock by default (experiments
// complete in milliseconds); pass RealTime to run against the wall clock
// for interactive use (see cmd/servo-server). Every instance is a cluster
// of Config.Shards game loops — one by default, the paper's single
// server — so the calls above are the same at every shard count.
package servo

import (
	"fmt"
	"io"
	"time"

	"servo/internal/blob"
	"servo/internal/cluster"
	"servo/internal/core"
	"servo/internal/experiment"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/scenario"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// Profile selects the server cost/behaviour profile of the systems the
// paper compares.
type Profile = mve.Profile

// Profiles.
const (
	Opencraft    = mve.ProfileOpencraft
	Minecraft    = mve.ProfileMinecraft
	ServoProfile = mve.ProfileServo
)

// Serverless toggles Servo's three serverless components independently,
// mirroring the L/S component matrix of the paper's Table I.
type Serverless struct {
	Constructs bool // speculative SC offloading (§III-C)
	Terrain    bool // serverless terrain generation (§III-D)
	Storage    bool // cached remote state storage (§III-E)
}

// AllServerless enables every Servo component.
func AllServerless() Serverless {
	return Serverless{Constructs: true, Terrain: true, Storage: true}
}

// TopologyConfig selects how an instance tiles chunk space into
// ownership regions (see internal/world: Topology).
type TopologyConfig struct {
	// Kind is "band" (contiguous 1-D bands along X, the compatibility
	// default) or "grid" (TilesX×TilesZ rectangular tiles, so load can
	// be split along both axes).
	Kind string
	// TilesX and TilesZ are the grid dimensions (grid kind only;
	// 0 → 4×4).
	TilesX, TilesZ int
}

// VisibilityConfig tunes cross-shard avatar visibility (the
// interest-management layer): each replication tick, every shard
// publishes its avatars standing within Margin blocks of a region-tile
// border, and the shards owning the bordering tiles materialise them as
// read-only ghost avatars — so players near a seam see one continuous
// world, and handoffs promote/demote a ghost instead of popping.
type VisibilityConfig struct {
	// Enabled turns border-tile avatar replication on.
	Enabled bool
	// Margin is the border margin in blocks (0 → the view distance).
	Margin int
}

// AutoscaleConfig tunes the cluster's elastic shard-count policy: the
// autoscaler differences the per-tile cost signal into demand rates,
// scales the shard count up/down on utilization bands (with
// per-direction cooldowns), spreads forming hotspots proactively along
// the tile-load derivative, and quarantines crash-looping shards. Scale
// events run on the virtual clock in lane order, so they replay
// byte-identically at every Workers setting. Zero-valued fields take the
// cluster defaults (see internal/cluster).
type AutoscaleConfig struct {
	// Enabled turns the policy loop on.
	Enabled bool
	// MinShards / MaxShards bound the alive shard count (0 → the boot
	// count / twice the boot count). Only shards added at runtime are
	// ever removed, so the effective floor is at least the boot count.
	MinShards int
	MaxShards int
	// ShardCapacity is one shard's demand capacity in cost units
	// (actions + chunk stores) per second; the utilization bands are
	// fractions of it.
	ShardCapacity float64
}

// Config configures an Instance.
type Config struct {
	// Seed makes the instance deterministic. Zero means seed 1.
	Seed int64
	// WorldType is "flat" or "default" (procedurally generated terrain);
	// empty means "default".
	WorldType string
	// Profile selects the cost profile; zero means the Servo profile.
	Profile Profile
	// Servo selects which backend components run serverlessly.
	Servo Serverless
	// ViewDistance in blocks (0 → 128, the paper's default).
	ViewDistance int
	// Shards is the number of region shards (0 → 1): one game loop per
	// shard over a single shared serverless substrate, with cross-shard
	// player handoff when avatars cross region-tile boundaries. Every
	// instance is a cluster — one shard is the paper's single game loop —
	// so session calls (Connect, Disconnect, SpawnConstruct) always route
	// through it; Cluster() exposes the router for handoff metrics.
	Shards int
	// Topology selects the region tiling: the zero value keeps the 1-D X
	// bands of earlier releases; Kind "grid" cuts chunk space into 2-D
	// tiles.
	Topology TopologyConfig
	// Rebalance enables the cluster controller's live tile rebalancing:
	// region-tile ownership migrates from the hottest to the coldest
	// shard when per-shard tick load drifts out of balance (idle while
	// the cluster has one shard).
	Rebalance bool
	// Visibility enables cross-shard avatar visibility: players near a
	// region-tile border see the neighbouring shard's avatars as
	// read-only ghosts (idle while the cluster has one shard).
	Visibility VisibilityConfig
	// Autoscale enables the elastic shard-count policy subsystem.
	Autoscale AutoscaleConfig
	// RealTime runs the instance on the wall clock instead of virtual
	// time. Run then blocks for real durations.
	RealTime bool
	// Workers sizes the worker pool of the virtual clock's lane-batched
	// scheduler (0 → 1): same-timestamp events from distinct shards
	// execute on it, with side effects ordered so the observable event
	// stream is byte-identical for every pool size. Ignored under
	// RealTime.
	Workers int
	// PhaseLock snaps a shard's next tick to the global TickInterval
	// grid after an overlong tick, so saturated shards re-align and keep
	// forming same-timestamp waves instead of drifting off-phase
	// forever. Deterministic at every Workers setting.
	PhaseLock bool
}

// topology builds the world-level tiling the config describes. A grid
// with no dimensions is 4×4. Unknown kinds panic: NewInstance has no
// error return, and silently booting the band fallback in place of a
// misspelled grid would reproduce exactly the hotspot failure the grid
// exists to fix.
func (c TopologyConfig) topology() world.Topology {
	switch c.Kind {
	case "", "band":
		return nil // core defaults to the band topology
	case "grid":
	default:
		panic(fmt.Sprintf(`servo: Topology.Kind must be "band" or "grid" (got %q)`, c.Kind))
	}
	tx, tz := c.TilesX, c.TilesZ
	if tx < 1 {
		tx = 4
	}
	if tz < 1 {
		tz = 4
	}
	return world.GridTopology{TilesX: tx, TilesZ: tz}
}

// Pos is a block position in the world.
type Pos = world.BlockPos

// At builds a block position.
func At(x, y, z int) Pos { return Pos{X: x, Y: y, Z: z} }

// Construct is a simulated construct: a grid of stateful circuit blocks.
type Construct = sc.Construct

// NewClockCircuit returns a small oscillating clock circuit, the canonical
// looping construct.
func NewClockCircuit() *Construct { return sc.NewClock(3, 2) }

// NewLampBank returns a clock-driven wall of lamps.
func NewLampBank(rows, cols int) *Construct { return sc.NewLampBank(rows, cols) }

// NewConstructSized returns an active construct with exactly the given
// number of blocks (≥ 12).
func NewConstructSized(blocks int) *Construct { return sc.BuildSized(blocks) }

// Behavior names the paper's player behaviors (Table I).
type Behavior string

// Behaviors.
const (
	BehaviorBounded Behavior = "A"    // move within a bounded area
	BehaviorRandom  Behavior = "R"    // Table II random action mix
	BehaviorStar3   Behavior = "S3"   // walk away from spawn at 3 blocks/s
	BehaviorStar8   Behavior = "S8"   // walk away from spawn at 8 blocks/s
	BehaviorSinc    Behavior = "Sinc" // star walk with increasing speed
)

// Player is a connected player session.
type Player = mve.Player

// TickStats summarises an instance's tick-duration distribution.
type TickStats struct {
	Box metrics.Boxplot
	// OverBudget is the fraction of ticks above the QoS bound, one
	// 50 ms tick.
	OverBudget float64
	// SupportsQoS is the paper's criterion: OverBudget < 5%.
	SupportsQoS bool
}

// String implements fmt.Stringer.
func (t TickStats) String() string {
	return fmt.Sprintf("%s over50ms=%.2f%% qos=%v", t.Box, t.OverBudget*100, t.SupportsQoS)
}

// Instance is one running MVE world: a cluster of one or more shard
// servers plus their (optional) serverless backend.
type Instance struct {
	cfg   Config
	loop  *sim.Loop      // virtual-time driver (nil in real time)
	rtc   *sim.RealClock // wall-clock driver (nil in virtual time)
	sys   *core.System
	stats *metrics.Sample
}

// NewInstance assembles and starts an instance. It panics on an invalid
// Topology (unknown Kind, or a grid with fewer tiles than shards —
// shards beyond the tile count could never own territory and their
// Home placement would silently land players elsewhere), and on an
// enabled Autoscale whose effective shard bounds the cluster cannot
// keep (a minimum above the maximum, or a maximum beyond the grid). It
// panics on an unknown WorldType too, rather than serve a misspelt flat
// world as procedural terrain.
func NewInstance(cfg Config) *Instance {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch cfg.WorldType {
	case "", "flat", "default":
	default:
		panic(fmt.Sprintf(`servo: WorldType must be "flat" or "default" (got %q)`, cfg.WorldType))
	}
	topo := cfg.Topology.topology()
	if topo != nil && cfg.Shards > topo.Tiles() {
		panic(fmt.Sprintf("servo: %d shards over a %d-tile grid: more shards than tiles",
			cfg.Shards, topo.Tiles()))
	}
	autoscale := cluster.AutoscaleConfig{
		Enabled:       cfg.Autoscale.Enabled,
		MinShards:     cfg.Autoscale.MinShards,
		MaxShards:     cfg.Autoscale.MaxShards,
		ShardCapacity: cfg.Autoscale.ShardCapacity,
	}
	if autoscale.Enabled {
		if err := autoscale.CheckBounds(max(cfg.Shards, 1), topo); err != nil {
			panic("servo: Autoscale: " + err.Error())
		}
	}
	inst := &Instance{cfg: cfg}
	var clock sim.Clock
	if cfg.RealTime {
		inst.rtc = sim.NewRealClock(cfg.Seed)
		clock = inst.rtc
	} else {
		inst.loop = sim.NewLoop(cfg.Seed)
		clock = inst.loop
	}
	// In real time the boot's storage reads complete on timer goroutines,
	// which run under the clock's callback lock: hold it until the system
	// is built and started, or a completion races the rest of the boot.
	inst.Locked(func() {
		inst.sys = core.New(clock, core.Config{
			Seed:             cfg.Seed,
			WorldType:        cfg.WorldType,
			Profile:          cfg.Profile,
			ViewDistance:     cfg.ViewDistance,
			ServerlessSC:     cfg.Servo.Constructs,
			ServerlessTG:     cfg.Servo.Terrain,
			ServerlessRS:     cfg.Servo.Storage,
			Shards:           cfg.Shards,
			Topology:         topo,
			Rebalance:        cfg.Rebalance,
			Visibility:       cfg.Visibility.Enabled,
			VisibilityMargin: cfg.Visibility.Margin,
			Autoscale:        autoscale,
			Workers:          cfg.Workers,
			PhaseLock:        cfg.PhaseLock,
		})
		inst.sys.Cluster.Start()
	})
	return inst
}

// Cluster exposes the session router every instance runs behind (one
// shard unless Config.Shards asks for more).
func (i *Instance) Cluster() *cluster.Cluster { return i.sys.Cluster }

// FailShard kills one shard's game loop: its tiles reroute to the
// surviving shards and its players are re-admitted from their last
// snapshots. Reports whether the failover ran (refused on the last alive
// shard).
func (i *Instance) FailShard(shard int) bool {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	return i.sys.FailShard(shard)
}

// RecoverShard rebuilds a failed shard over the persisted world and
// returns its tiles.
func (i *Instance) RecoverShard(shard int) bool {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	return i.sys.RecoverShard(shard)
}

// Server exposes shard 0's game server for advanced use — the whole
// world on a one-shard instance. rtserve streams from it, and it is part
// of the surface the frozen benchmark/ harness reads (ROADMAP item 1(a)).
func (i *Instance) Server() *mve.Server { return i.sys.Server }

// System exposes the assembled backend (FaaS platform, functions, storage
// stack) for metrics inspection.
func (i *Instance) System() *core.System { return i.sys }

// Connect joins a player with a named behavior ("" for an idle player).
func (i *Instance) Connect(name string, b Behavior) *Player {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	var behavior mve.Behavior
	if b != "" {
		behavior = workload.ForName(string(b))
	}
	return i.connectBehavior(name, behavior)
}

// connectBehavior joins a session through the cluster router (the caller
// holds the real-time lock if any).
func (i *Instance) connectBehavior(name string, b mve.Behavior) *Player {
	cl := i.sys.Cluster
	return cl.Session(cl.Connect(name, b))
}

// ConnectBehavior joins a player driven by a custom mve.Behavior
// implementation (e.g. a network-fed action queue; see cmd/servo-server).
func (i *Instance) ConnectBehavior(name string, b mve.Behavior) *Player {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	return i.connectBehavior(name, b)
}

// Locked runs fn serialised with the game loop. In virtual time this is a
// plain call (the loop is single-threaded); in real time it holds the
// clock's callback lock, so fn may safely touch server state.
func (i *Instance) Locked(fn func()) {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	fn()
}

// Disconnect removes a player, reporting whether a session was actually
// removed. The session handle is resolved through the cluster (by
// pointer, then by unique name for sessions that moved shards; see
// cluster.HandleOf); false means the resolution failed — the player is
// already gone, or the stale pointer's name is ambiguous (several
// sessions bear it) and disconnecting any of them could hit the wrong
// player.
func (i *Instance) Disconnect(p *Player) bool {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	h := i.sys.Cluster.HandleOf(p)
	if h == nil {
		return false
	}
	return i.sys.Cluster.Disconnect(h.ID)
}

// SpawnConstruct activates a construct anchored at pos and returns its
// id. The construct lands on the shard owning its anchor region.
func (i *Instance) SpawnConstruct(c *Construct, pos Pos) uint64 {
	if i.rtc != nil {
		i.rtc.Lock()
		defer i.rtc.Unlock()
	}
	_, id := i.sys.Cluster.SpawnConstruct(c, pos)
	return id
}

// Run advances the instance by d: instantaneous in virtual time, blocking
// in real time.
func (i *Instance) Run(d time.Duration) {
	if i.loop != nil {
		i.loop.RunUntil(i.loop.Now() + d)
		return
	}
	time.Sleep(d)
}

// Now returns the instance's current (virtual or wall) time.
func (i *Instance) Now() time.Duration {
	if i.loop != nil {
		return i.loop.Now()
	}
	return i.rtc.Now()
}

// Stop halts the game loop(s).
func (i *Instance) Stop() {
	if i.rtc != nil {
		i.rtc.Lock()
		i.sys.Cluster.Stop()
		i.rtc.Unlock()
		i.rtc.Close()
		return
	}
	i.sys.Cluster.Stop()
}

// TickStats summarises the tick-duration distribution so far, pooled
// across every shard.
func (i *Instance) TickStats() TickStats {
	s := &metrics.Sample{}
	for _, sh := range i.sys.Shards {
		s.AddAll(sh.Server.TickDurations.Values())
	}
	over := s.FracAbove(mve.QoSThreshold)
	return TickStats{Box: s.Box(), OverBudget: over, SupportsQoS: over < mve.QoSFraction}
}

// ResetStats clears accumulated tick samples (e.g. after a warm-up).
func (i *Instance) ResetStats() {
	for _, sh := range i.sys.Shards {
		sh.Server.TickDurations = metrics.NewSample(4096)
	}
}

// ViewMargin returns the distance from the closest player to the nearest
// missing terrain (the Fig. 10 QoS metric; view distance = perfect),
// taking the minimum across shards.
func (i *Instance) ViewMargin() int {
	margin := -1
	for _, sh := range i.sys.Shards {
		if vm := sh.Server.MinViewMargin(); margin < 0 || vm < margin {
			margin = vm
		}
	}
	return margin
}

// StorageTier names a storage tier for Experiments.
type StorageTier = blob.Tier

// Experiment options and runners, re-exported so downstream users can
// regenerate any paper artifact programmatically.
type (
	// ExperimentOptions controls experiment scale and seeding.
	ExperimentOptions = experiment.Options
)

// DefaultExperimentOptions returns bench-scale experiment options.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// RunExperiment runs one or more named experiments (comma-separated; see
// ListExperiments) writing the reports to w.
func RunExperiment(names string, opt ExperimentOptions, w io.Writer) error {
	return experiment.RunByName(names, opt, w)
}

// ListExperiments returns the available experiment names and descriptions.
func ListExperiments() map[string]string {
	out := make(map[string]string)
	for _, r := range experiment.Runners() {
		out[r.Name] = r.Description
	}
	return out
}

// Scenario-harness re-exports (internal/scenario): declarative scenarios
// that drive the real server/backend stack with fleets, chaos injection,
// stress generators, and end-of-run assertions. See cmd/servo-sim for the
// CLI front-end and the README for the spec format.
type (
	// ScenarioSpec is a parsed, validated scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioReport is the deterministic outcome of one scenario run.
	ScenarioReport = scenario.Report
)

// ParseScenario decodes and validates a scenario spec document (JSON).
func ParseScenario(data []byte) (*ScenarioSpec, error) { return scenario.Parse(data) }

// RunScenario executes a scenario to completion on the virtual clock.
// log, if non-nil, receives progress lines; the returned report is a pure
// function of the spec (byte-identical across runs).
func RunScenario(spec *ScenarioSpec, log io.Writer) (*ScenarioReport, error) {
	return scenario.Run(spec, log)
}

// BundledScenarios returns the names of the scenarios shipped with
// cmd/servo-sim.
func BundledScenarios() []string { return scenario.Bundled() }

// LoadBundledScenario parses a bundled scenario by name.
func LoadBundledScenario(name string) (*ScenarioSpec, error) { return scenario.LoadBundled(name) }
