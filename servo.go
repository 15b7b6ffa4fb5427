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
// for interactive use (see cmd/servo-server). An instance is a one-shard
// cluster — the paper's single server — whose session calls route through
// the cluster router; sharded runs (grid topologies, rebalancing,
// visibility, autoscaling) are scenario specs (internal/scenario, run by
// cmd/servo-sim).
package servo

import (
	"fmt"
	"time"

	"servo/internal/core"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
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
	// RealTime runs the instance on the wall clock instead of virtual
	// time. Run then blocks for real durations.
	RealTime bool
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

// Instance is one running MVE world: a one-shard cluster plus its
// (optional) serverless backend.
type Instance struct {
	loop *sim.Loop      // virtual-time driver (nil in real time)
	rtc  *sim.RealClock // wall-clock driver (nil in virtual time)
	sys  *core.System
}

// NewInstance assembles and starts an instance. It panics on an unknown
// WorldType, rather than serve a misspelt flat world as procedural
// terrain.
func NewInstance(cfg Config) *Instance {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch cfg.WorldType {
	case "", "flat", "default":
	default:
		panic(fmt.Sprintf(`servo: WorldType must be "flat" or "default" (got %q)`, cfg.WorldType))
	}
	inst := &Instance{}
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
			Seed:         cfg.Seed,
			WorldType:    cfg.WorldType,
			Profile:      cfg.Profile,
			ViewDistance: cfg.ViewDistance,
			ServerlessSC: cfg.Servo.Constructs,
			ServerlessTG: cfg.Servo.Terrain,
			ServerlessRS: cfg.Servo.Storage,
		})
		inst.sys.Cluster.Start()
	})
	return inst
}

// Server exposes the instance's game server for advanced use. rtserve
// streams from it, and it is part of the surface the frozen benchmark/
// harness reads (ROADMAP item 1(a)).
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
// pointer, then by unique name; see cluster.HandleOf); false means the resolution failed — the player is
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
// id.
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

// Stop halts the game loop.
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

// TickStats summarises the tick-duration distribution so far.
func (i *Instance) TickStats() TickStats {
	s := &metrics.Sample{}
	s.AddAll(i.sys.Server.TickDurations.Values())
	over := s.FracAbove(mve.QoSThreshold)
	return TickStats{Box: s.Box(), OverBudget: over, SupportsQoS: over < mve.QoSFraction}
}

// ViewMargin returns the distance from the closest player to the nearest
// missing terrain (the Fig. 10 QoS metric; view distance = perfect).
func (i *Instance) ViewMargin() int { return i.sys.Server.MinViewMargin() }
