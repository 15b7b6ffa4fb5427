// Package scenario is the declarative simulation harness: it drives the
// real mve.Server / core.System stack (not mocks) from scenario specs —
// fleet definitions, timed chaos events, seeded stress generators, and
// end-of-run assertions — turning the repo from a fixed set of hand-coded
// paper experiments into an open-ended experiment platform.
//
// A scenario is a JSON document (stdlib-parseable; the container ships no
// YAML dependency) with five sections:
//
//   - world/backend: which system to assemble (profile, world type, and
//     the L/S serverless component toggles of the paper's Table I),
//     plus shards/topology for a region-sharded cluster (1-D bands or
//     2-D grid tiles);
//   - fleet: groups of players with Table I behaviors joining and leaving
//     at fixed times;
//   - stress: a seeded random fleet of bot players with weighted behavior
//     mixes, ramped joins, and exponential session churn;
//   - events: timed interventions — player flash crowds, construct storms,
//     FaaS failure/slowdown windows, cold-start storms, storage brownouts,
//     runtime storage-backend flips, and shard failures;
//   - assertions: end-of-run checks over the collected metrics
//     (tick-duration percentiles, cache hit rates, fault counts, ...).
//
// What a metric is lives in one place, the table in metrics.go: a row
// per metric, in report order, carrying its name, the availability class
// validation and collection both consult, whether it is reported as
// growth since warm-up, whether assertions may window it, and its
// reader. The warm-up snapshot, the report and assertion validation are
// all walks of that table; to add a metric, add a row.
//
// Events and placements are said once the same way. What an event kind is
// lives in the table in events.go (JSON keys, required classes, field
// check, effect); to add a kind, add a row. Where a player joins is one
// Placement (placement.go), validated and resolved in one place for fleet
// groups, prewrite fleets, flash crowds and stress "spread". What a
// section, placement or event requires of the system is stated with the
// metric table's classes and printed by Spec.require.
//
// Everything runs on the deterministic virtual clock, so a scenario is a
// pure function of its spec: running it twice produces byte-identical
// reports (see TestDeterministicReplay).
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"servo/internal/cluster"
	"servo/internal/mve"
	"servo/internal/workload"
	"servo/internal/world"
)

// Span is a duration field in scenario files, written as a Go duration
// string ("250ms", "30s", "2m").
type Span time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (s *Span) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return fmt.Errorf(`durations must be strings like "30s" (got %s)`, string(b))
	}
	d, err := time.ParseDuration(str)
	if err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("duration %q is negative", str)
	}
	*s = Span(d)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (s Span) MarshalJSON() ([]byte, error) { return json.Marshal(s.D().String()) }

// D returns the span as a time.Duration.
func (s Span) D() time.Duration { return time.Duration(s) }

// String implements fmt.Stringer.
func (s Span) String() string { return s.D().String() }

// WorldSpec selects the world and server profile.
type WorldSpec struct {
	// Type is "flat" or "default" (procedural terrain); "" → "flat".
	Type string `json:"type,omitempty"`
	// Profile is "servo", "opencraft", or "minecraft"; "" → "servo".
	Profile string `json:"profile,omitempty"`
	// ViewDistance in blocks; 0 → the 128-block paper default.
	ViewDistance int `json:"view_distance,omitempty"`
}

// SpecExecSpec tunes the speculative execution unit. Unset fields keep the
// calibrated defaults.
type SpecExecSpec struct {
	TickLead    *int  `json:"tick_lead,omitempty"`
	Steps       *int  `json:"steps,omitempty"`
	DetectLoops *bool `json:"detect_loops,omitempty"`
}

// BackendSpec toggles Servo's serverless components (Table I).
type BackendSpec struct {
	// Constructs offloads simulated constructs to FaaS (§III-C).
	Constructs bool `json:"constructs,omitempty"`
	// Terrain offloads terrain generation to FaaS (§III-D).
	Terrain bool `json:"terrain,omitempty"`
	// Storage persists chunks in premium-tier managed storage behind the
	// pre-fetching cache (§III-E).
	Storage bool `json:"storage,omitempty"`
	// LocalStore persists chunks to a local-disk-class store instead
	// (the baselines' behaviour). Mutually exclusive with Storage.
	LocalStore bool `json:"local_store,omitempty"`
	// SpecExec tunes construct offloading. Only valid with Constructs.
	SpecExec *SpecExecSpec `json:"spec_exec,omitempty"`
	// TGMaxInflight caps concurrent terrain-generation invocations per
	// shard (0 → the tgen default). Only valid with Terrain.
	TGMaxInflight int `json:"tg_max_inflight,omitempty"`
}

// ConstructGroup places a grid of simulated constructs at scenario start.
type ConstructGroup struct {
	Count int `json:"count"`
	// Blocks per construct; 0 → 250 (the paper's §IV-B size). Must be
	// ≥ 12 when set.
	Blocks int `json:"blocks,omitempty"`
}

// TopologySpec selects the region tiling of a sharded cluster.
type TopologySpec struct {
	// Kind is "band" (1-D X bands, the compatibility default) or "grid"
	// (TilesX×TilesZ rectangular tiles repeating across the plane).
	Kind string `json:"kind,omitempty"`
	// TilesX and TilesZ are the grid dimensions (grid kind only;
	// required, in [1, 64]).
	TilesX int `json:"tiles_x,omitempty"`
	TilesZ int `json:"tiles_z,omitempty"`
	// TileChunks is the tile side (band width) in chunk columns; 0 → 8.
	TileChunks int `json:"tile_chunks,omitempty"`
}

// Grid reports whether the topology is a 2-D grid.
func (t *TopologySpec) Grid() bool { return t != nil && t.Kind == "grid" }

// build returns the tiling a validated section describes (nil → the
// cluster's default bands).
func (t *TopologySpec) build() world.Topology {
	if t == nil {
		return nil
	}
	topo, err := (world.TopologySpec{
		Kind:       t.Kind,
		TileChunks: t.TileChunks,
		TilesX:     t.TilesX,
		TilesZ:     t.TilesZ,
	}).Build()
	if err != nil { // Validate has already vetted the geometry
		return nil
	}
	return topo
}

// VisibilitySpec enables the cluster's interest-management layer: each
// replication tick, every shard publishes its avatars standing within
// the border margin of a region-tile boundary, and the shards owning the
// bordering tiles materialise them as read-only ghost avatars — players
// near a seam see one continuous world, and handoffs promote/demote a
// ghost instead of popping. Its presence in a spec turns the layer on.
// Replication runs once per server tick.
type VisibilitySpec struct {
	// Margin is the border margin in blocks; 0 → the view distance.
	Margin int `json:"margin,omitempty"`
}

// FleetGroup is a group of players joining (and optionally leaving) at
// fixed times.
type FleetGroup struct {
	Count int `json:"count"`
	// Behavior is a Table I name ("A", "R", "S3", "S8", "Sinc") or
	// "idle"; "" → "A".
	Behavior string `json:"behavior,omitempty"`
	// JoinAt is when the group connects (default: scenario start).
	JoinAt Span `json:"join_at,omitempty"`
	// LeaveAt, if set, is when the group disconnects; must be after
	// JoinAt. 0 → stay until the end.
	LeaveAt Span `json:"leave_at,omitempty"`
	// Placement is where the group joins (shard | tile | pos, mutually
	// exclusive); unset → world spawn.
	Placement
}

// ChurnSpec adds session churn to a stress fleet: bots play for an
// exponentially distributed session, disconnect, pause, and rejoin under
// the same identity (exercising player-data persistence).
type ChurnSpec struct {
	// MeanSession is the mean session length (required).
	MeanSession Span `json:"mean_session"`
	// MeanPause is the mean pause before rejoining; 0 → 5s.
	MeanPause Span `json:"mean_pause,omitempty"`
}

// StressSpec generates a seeded random fleet of bot players.
type StressSpec struct {
	// Bots is the fleet size (required).
	Bots int `json:"bots"`
	// Ramp spreads the initial joins evenly over this window;
	// 0 → duration/4.
	Ramp Span `json:"ramp,omitempty"`
	// Behaviors maps behavior names to selection weights;
	// empty → {"A": 1}.
	Behaviors map[string]float64 `json:"behaviors,omitempty"`
	// Churn, if set, recycles bot sessions.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Placement is "spawn" (everyone joins at world spawn, the default)
	// or "spread" (bot i joins in shard i mod N's home tile, so a
	// sharded cluster starts load-balanced; requires shards > 1).
	Placement string `json:"placement,omitempty"`
}

// RebalanceSpec enables the cluster controller's live tile rebalancing:
// the controller watches per-shard tick load and migrates region-tile
// ownership from the hottest to the coldest shard (flushing the tile's
// chunks through the store first, then bumping the ownership epoch) when
// the imbalance stays over the threshold.
type RebalanceSpec struct {
	// Threshold is the load_imbalance trigger (max/mean of per-shard tick
	// load); 0 → 1.25. Must be >= 1 when set.
	Threshold float64 `json:"threshold,omitempty"`
	// Interval is the controller check cadence; 0 → 2s.
	Interval Span `json:"interval,omitempty"`
}

// AutoscaleSpec enables the cluster's elastic shard autoscaling: a
// policy loop differences per-tile demand into rates, scales the shard
// set up/down on utilization bands with per-direction cooldowns,
// projects rates along their derivative to spread forming hotspots
// proactively, and quarantines crash-looping shards. Its presence in a
// spec turns the subsystem on. Scale-ups spawn fresh shards over the
// persisted world; scale-downs drain every owned tile through the
// durable migration path before retiring, so no player is ever lost.
// The policy checks every 2s, scales up when projected utilization tops
// 0.75, projects 4s ahead, waits 4s between scale-ups, moves at most 4
// tiles a round, and quarantines a shard after 3 crashes within 2m.
type AutoscaleSpec struct {
	// MinShards / MaxShards bound the alive shard count (min 0 → the boot
	// shard count; max 0 → twice the boot count). Only shards added at
	// runtime are ever removed, so the effective floor is the boot count.
	MinShards int `json:"min_shards,omitempty"`
	MaxShards int `json:"max_shards,omitempty"`
	// ShardCapacity is one shard's nominal demand capacity in cost units
	// (actions + chunk stores) per second; 0 → 500. Workload-dependent —
	// calibrate it against the tile_load CSV rows of a probe run.
	ShardCapacity float64 `json:"shard_capacity,omitempty"`
	// LowUtil is the scale-down band edge: demand that would stay under
	// it on one fewer shard scales down (0 → 0.35; below 0.75).
	LowUtil float64 `json:"low_util,omitempty"`
	// DownCooldown is the minimum gap between successive scale-downs
	// (0 → 12s).
	DownCooldown Span `json:"down_cooldown,omitempty"`
	// Probation is how long a quarantined shard stays out after its last
	// crash (0 → 2m).
	Probation Span `json:"probation,omitempty"`
}

// config is the cluster policy the section asks for.
func (a *AutoscaleSpec) config() cluster.AutoscaleConfig {
	return cluster.AutoscaleConfig{
		Enabled:       true,
		MinShards:     a.MinShards,
		MaxShards:     a.MaxShards,
		LowUtil:       a.LowUtil,
		ShardCapacity: a.ShardCapacity,
		DownCooldown:  a.DownCooldown.D(),
		Probation:     a.Probation.D(),
	}
}

// PrewriteSpec runs a write phase before the measured scenario: a
// throwaway system over the same storage substrate explores (persisting
// terrain and player records), is stopped and flushed, and then the
// measured system restarts over the populated store — the world-restart
// hook behind the paper's Fig. 13 read phase. Requires a storage backend.
type PrewriteSpec struct {
	// Duration is the write-phase length (required).
	Duration Span `json:"duration"`
	// Fleet is the write-phase population (required; join/leave times are
	// relative to the write phase).
	Fleet []FleetGroup `json:"fleet"`
}

// Assertion is one check: metric OP value, evaluated end-of-run, or —
// when From/To set a window — over the tick observations inside
// [from, to] (times relative to scenario start, spanning warm-up freely).
// Windowed assertions support the tick metrics only (ticks_total,
// ticks_over_budget, over_budget_frac, tick_*_ms), which are recomputed
// from the per-tick time series inside the window.
type Assertion struct {
	// Metric is a name from the metric registry (see Metrics section of
	// the README). Duration-valued metrics are in milliseconds.
	Metric string `json:"metric"`
	// Op is one of "<", "<=", ">", ">=".
	Op string `json:"op"`
	// Value is the bound.
	Value float64 `json:"value"`
	// From and To bound the assertion window; both zero → end of run.
	From Span `json:"from,omitempty"`
	To   Span `json:"to,omitempty"`
}

// Windowed reports whether the assertion is evaluated over a time window.
func (a Assertion) Windowed() bool { return a.To != 0 }

// Spec is a complete scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random draw; 0 → 1.
	Seed int64 `json:"seed,omitempty"`
	// Duration is the virtual run length (required).
	Duration Span `json:"duration"`
	// Warmup is discarded before tick statistics and counter deltas are
	// measured; 0 → min(10s, duration/5). Must be shorter than Duration.
	Warmup Span `json:"warmup,omitempty"`
	// Shards is the number of region shards the cluster boots (0 → 1):
	// one server per shard over one shared serverless substrate, with
	// cross-shard player handoff. The control-plane sections below, and
	// the report rows and CSV sections about shards, need shards > 1.
	Shards int `json:"shards,omitempty"`
	// Topology selects the region tiling of a sharded cluster: 1-D X
	// bands (the default) or a 2-D grid (requires shards > 1).
	Topology *TopologySpec `json:"topology,omitempty"`
	// Rebalance, if set, enables the cluster controller's live tile
	// rebalancing (requires shards > 1).
	Rebalance *RebalanceSpec `json:"rebalance,omitempty"`
	// Autoscale, if set, enables elastic shard autoscaling: the policy
	// loop grows and shrinks the shard set on demand bands, spreads
	// forming hotspots predictively, and quarantines crash-looping
	// shards (requires shards > 1).
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	// Visibility, if set, enables cross-shard avatar visibility: border
	// avatars replicate to neighbouring shards as read-only ghosts
	// (requires shards > 1).
	Visibility *VisibilitySpec `json:"visibility,omitempty"`
	// Checkpoint, if set, periodically persists every session's snapshot
	// through the shared store, so shard failover restores inventory
	// even for players that never crossed a boundary (requires
	// shards > 1 and a storage backend).
	Checkpoint Span `json:"checkpoint,omitempty"`
	// Workers sizes the goroutine pool of the virtual clock's
	// lane-batched scheduler, which runs same-timestamp ticks of
	// distinct shards in parallel (0 → 1). The report is byte-identical
	// for every value.
	Workers int `json:"workers,omitempty"`
	// PhaseLock re-aligns a shard's tick schedule to the global tick
	// grid after an overlong tick, so saturated shards keep ticking at
	// shared timestamps (and the parallel scheduler keeps forming
	// waves) instead of drifting off-phase forever. Deterministic at
	// every workers setting.
	PhaseLock bool `json:"phase_lock,omitempty"`

	World      WorldSpec        `json:"world,omitempty"`
	Backend    BackendSpec      `json:"backend,omitempty"`
	Prewrite   *PrewriteSpec    `json:"prewrite,omitempty"`
	Constructs []ConstructGroup `json:"constructs,omitempty"`
	Fleet      []FleetGroup     `json:"fleet,omitempty"`
	Stress     *StressSpec      `json:"stress,omitempty"`
	Events     []Event          `json:"events,omitempty"`
	Assertions []Assertion      `json:"assertions,omitempty"`
}

// Parse decodes and validates a scenario spec. Unknown fields are
// rejected, so typos surface as errors rather than silent no-ops.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return nil, errors.New("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseFile reads and parses the scenario at path.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// errf builds a validation error prefixed with the scenario name.
func (s *Spec) errf(format string, args ...any) error {
	return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
}

// require checks the availability classes a section, placement or event
// needs: the one place "<thing> requires <what>" is printed.
func (s *Spec) require(thing string, needs ...*class) error {
	for _, c := range needs {
		if !c.has(s) {
			return s.errf("%s requires %s", thing, c.requires)
		}
	}
	return nil
}

// checkCadence rejects a set control-loop cadence below one server tick:
// nothing the loops observe changes faster, and a nanosecond-scale typo
// ("50us" for "50ms") would otherwise schedule billions of scan events.
func (s *Spec) checkCadence(field string, d Span) error {
	if d != 0 && d.D() < mve.TickInterval {
		return s.errf("%s must be at least %s (got %s)", field, mve.TickInterval, d)
	}
	return nil
}

// checkConstructBlocks applies the construct size rule: 0 → 250 (the
// paper's §IV-B size), at least 12 when set.
func (s *Spec) checkConstructBlocks(ctx string, blocks *int) error {
	if *blocks == 0 {
		*blocks = 250
	}
	if *blocks < 12 {
		return s.errf("%s: blocks must be >= 12 (got %d)", ctx, *blocks)
	}
	return nil
}

// Validate checks the spec and normalises zero-value fields to their
// documented defaults. It is idempotent.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: name is required")
	}
	if s.Duration <= 0 {
		return s.errf("duration is required and must be positive")
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Warmup == 0 {
		s.Warmup = Span(min(10*time.Second, s.Duration.D()/5))
	}
	if s.Warmup >= s.Duration {
		return s.errf("warmup %s must be shorter than duration %s", s.Warmup, s.Duration)
	}
	if s.Shards < 0 || s.Shards > 64 {
		return s.errf("shards must be in [0, 64] (got %d)", s.Shards)
	}
	if err := s.validateTopology(); err != nil {
		return err
	}
	if rb := s.Rebalance; rb != nil {
		if err := s.require("rebalance", needsCluster); err != nil {
			return err
		}
		if rb.Threshold != 0 && rb.Threshold < 1 {
			return s.errf("rebalance.threshold must be >= 1 (got %g)", rb.Threshold)
		}
		if err := s.checkCadence("rebalance.interval", rb.Interval); err != nil {
			return err
		}
	}
	if err := s.validateAutoscale(); err != nil {
		return err
	}
	if v := s.Visibility; v != nil {
		if err := s.require("visibility", needsCluster); err != nil {
			return err
		}
		if v.Margin < 0 || v.Margin > 1024 {
			return s.errf("visibility.margin must be in [0, 1024] (got %d)", v.Margin)
		}
	}
	if s.Checkpoint != 0 {
		if err := s.require("checkpoint", needsCluster, needsStore); err != nil {
			return err
		}
		if err := s.checkCadence("checkpoint", s.Checkpoint); err != nil {
			return err
		}
	}
	if s.Workers < 0 || s.Workers > 256 {
		return s.errf("workers must be in [0, 256] (got %d)", s.Workers)
	}

	if err := s.validateWorld(); err != nil {
		return err
	}
	if err := s.validateBackend(); err != nil {
		return err
	}
	if err := s.validatePrewrite(); err != nil {
		return err
	}
	for i := range s.Constructs {
		g := &s.Constructs[i]
		ctx := fmt.Sprintf("constructs[%d]", i)
		if g.Count <= 0 {
			return s.errf("%s: count must be positive", ctx)
		}
		if err := s.checkConstructBlocks(ctx, &g.Blocks); err != nil {
			return err
		}
	}
	if err := s.validateFleet("fleet", s.Fleet, "scenario duration", s.Duration); err != nil {
		return err
	}
	if err := s.validateStress(); err != nil {
		return err
	}
	if err := s.validateEvents(); err != nil {
		return err
	}
	for i, a := range s.Assertions {
		if err := s.validateAssertion(i, a); err != nil {
			return err
		}
	}
	return nil
}

// maxShards is the highest shard index bound the scenario can reach:
// the autoscale ceiling when the subsystem is on, the static shard
// count otherwise. Per-shard assertions validate against it.
func (s *Spec) maxShards() int {
	if a := s.Autoscale; a != nil {
		if a.MaxShards > 0 {
			return a.MaxShards
		}
		return 2 * s.Shards
	}
	return s.Shards
}

func (s *Spec) validateAutoscale() error {
	a := s.Autoscale
	if a == nil {
		return nil
	}
	if err := s.require("autoscale", needsCluster); err != nil {
		return err
	}
	if a.MinShards < 0 || a.MaxShards < 0 {
		return s.errf("autoscale.min_shards and max_shards must be non-negative")
	}
	if a.MaxShards > 64 {
		return s.errf("autoscale.max_shards must be <= 64 (got %d)", a.MaxShards)
	}
	if err := a.config().CheckBounds(s.Shards, s.Topology.build()); err != nil {
		return s.errf("autoscale: %v", err)
	}
	if a.LowUtil < 0 || a.LowUtil >= cluster.HighUtil {
		return s.errf("autoscale.low_util must be in [0, %g) (got %g)", cluster.HighUtil, a.LowUtil)
	}
	if a.ShardCapacity < 0 {
		return s.errf("autoscale.shard_capacity must be non-negative")
	}
	return nil
}

func (s *Spec) validateTopology() error {
	tp := s.Topology
	if tp == nil {
		return nil
	}
	if err := s.require("topology", needsCluster); err != nil {
		return err
	}
	switch tp.Kind {
	case "":
		tp.Kind = "band"
	case "band", "grid":
	default:
		return s.errf(`topology.kind must be "band" or "grid" (got %q)`, tp.Kind)
	}
	if tp.TileChunks < 0 || tp.TileChunks > 64 {
		return s.errf("topology.tile_chunks must be in [0, 64] (got %d)", tp.TileChunks)
	}
	if tp.Kind == "band" {
		if tp.TilesX != 0 || tp.TilesZ != 0 {
			return s.errf("topology.tiles_x/tiles_z only apply to the grid kind")
		}
		return nil
	}
	if tp.TilesX < 1 || tp.TilesX > 64 || tp.TilesZ < 1 || tp.TilesZ > 64 {
		return s.errf("grid topology needs tiles_x and tiles_z in [1, 64] (got %dx%d)", tp.TilesX, tp.TilesZ)
	}
	if s.Shards > tp.TilesX*tp.TilesZ {
		return s.errf("%d shards over a %dx%d grid: more shards than tiles", s.Shards, tp.TilesX, tp.TilesZ)
	}
	return nil
}

func (s *Spec) validateWorld() error {
	switch s.World.Type {
	case "":
		s.World.Type = "flat"
	case "flat", "default":
	default:
		return s.errf(`world.type must be "flat" or "default" (got %q)`, s.World.Type)
	}
	switch s.World.Profile {
	case "":
		s.World.Profile = "servo"
	case "servo", "opencraft", "minecraft":
	default:
		return s.errf(`world.profile must be "servo", "opencraft", or "minecraft" (got %q)`, s.World.Profile)
	}
	if s.World.ViewDistance < 0 {
		return s.errf("world.view_distance must be non-negative")
	}
	return nil
}

func (s *Spec) validateBackend() error {
	b := &s.Backend
	if b.Storage && b.LocalStore {
		return s.errf("backend.storage and backend.local_store are mutually exclusive")
	}
	if b.SpecExec != nil {
		if !b.Constructs {
			return s.errf("backend.spec_exec is set but backend.constructs is false")
		}
		if b.SpecExec.Steps != nil && *b.SpecExec.Steps <= 0 {
			return s.errf("backend.spec_exec.steps must be positive")
		}
		if b.SpecExec.TickLead != nil && *b.SpecExec.TickLead < 0 {
			return s.errf("backend.spec_exec.tick_lead must be non-negative")
		}
	}
	if b.TGMaxInflight < 0 {
		return s.errf("backend.tg_max_inflight must be non-negative")
	}
	if b.TGMaxInflight > 0 && !b.Terrain {
		return s.errf("backend.tg_max_inflight is set but backend.terrain is false")
	}
	return nil
}

// validateFleet checks one fleet section (the main fleet or the prewrite
// fleet) against its time horizon.
func (s *Spec) validateFleet(section string, fleet []FleetGroup, horizonName string, horizon Span) error {
	for i := range fleet {
		g := &fleet[i]
		ctx := fmt.Sprintf("%s[%d]", section, i)
		if g.Count <= 0 {
			return s.errf("%s: count must be positive", ctx)
		}
		if g.Behavior == "" {
			g.Behavior = "A"
		}
		if !workload.Known(g.Behavior) {
			return s.errf("%s: unknown behavior %q", ctx, g.Behavior)
		}
		if g.JoinAt >= horizon {
			return s.errf("%s: join_at %s is past the %s %s", ctx, g.JoinAt, horizonName, horizon)
		}
		if g.LeaveAt != 0 && g.LeaveAt <= g.JoinAt {
			return s.errf("%s: leave_at %s must be after join_at %s", ctx, g.LeaveAt, g.JoinAt)
		}
		if g.LeaveAt != 0 && g.LeaveAt >= horizon {
			return s.errf("%s: leave_at %s is past the %s %s and would never fire", ctx, g.LeaveAt, horizonName, horizon)
		}
		if err := g.Placement.validate(s, ctx); err != nil {
			return err
		}
	}
	return nil
}

// validatePrewrite checks the write phase (the Fig. 13 world-restart
// hook): it needs a storage backend to populate and a fleet to do the
// writing.
func (s *Spec) validatePrewrite() error {
	pw := s.Prewrite
	if pw == nil {
		return nil
	}
	if err := s.require("prewrite", needsStore); err != nil {
		return err
	}
	if pw.Duration <= 0 {
		return s.errf("prewrite.duration is required and must be positive")
	}
	if len(pw.Fleet) == 0 {
		return s.errf("prewrite.fleet is required (an empty write phase writes nothing)")
	}
	return s.validateFleet("prewrite.fleet", pw.Fleet, "prewrite duration", pw.Duration)
}

func (s *Spec) validateStress() error {
	st := s.Stress
	if st == nil {
		return nil
	}
	if st.Bots <= 0 {
		return s.errf("stress.bots must be positive")
	}
	if st.Ramp == 0 {
		st.Ramp = s.Duration / 4
	}
	if st.Ramp >= s.Duration {
		return s.errf("stress.ramp %s must be shorter than duration %s", st.Ramp, s.Duration)
	}
	if len(st.Behaviors) == 0 {
		st.Behaviors = map[string]float64{"A": 1}
	}
	for name, w := range st.Behaviors {
		if !workload.Known(name) {
			return s.errf("stress.behaviors: unknown behavior %q", name)
		}
		if w <= 0 {
			return s.errf("stress.behaviors[%q]: weight must be positive", name)
		}
	}
	if st.Churn != nil {
		if st.Churn.MeanSession <= 0 {
			return s.errf("stress.churn.mean_session is required and must be positive")
		}
		if st.Churn.MeanPause == 0 {
			st.Churn.MeanPause = Span(5 * time.Second)
		}
	}
	switch st.Placement {
	case "":
		st.Placement = "spawn"
	case "spawn":
	case "spread":
		if err := s.require(`stress.placement "spread"`, needsCluster); err != nil {
			return err
		}
	default:
		return s.errf(`stress.placement must be "spawn" or "spread" (got %q)`, st.Placement)
	}
	return nil
}

func (s *Spec) validateAssertion(i int, a Assertion) error {
	m, slot, ok := findMetric(a.Metric)
	switch {
	case !ok:
		return s.errf("assertions[%d]: unknown metric %q", i, a.Metric)
	case slot >= 0 && !m.class.has(s):
		return s.errf("assertions[%d]: per-shard metric %q requires %s", i, a.Metric, m.class.requires)
	case slot >= s.maxShards():
		return s.errf("assertions[%d]: metric %q names shard %d but the scenario reaches at most %d shards", i, a.Metric, slot, s.maxShards())
	}
	if a.From != 0 || a.To != 0 {
		if !m.windowable() {
			return s.errf("assertions[%d]: metric %q does not support [from, to] windows (tick metrics, load_imbalance, and view_margin only)", i, a.Metric)
		}
		if a.To == 0 {
			return s.errf("assertions[%d]: window has from but no to", i)
		}
		if a.From >= a.To {
			return s.errf("assertions[%d]: window from %s must be before to %s", i, a.From, a.To)
		}
		if a.To > s.Duration {
			return s.errf("assertions[%d]: window to %s is past the scenario duration %s", i, a.To, s.Duration)
		}
	}
	if !m.class.has(s) {
		return s.errf("assertions[%d]: metric %q requires %s", i, a.Metric, m.class.requires)
	}
	switch a.Op {
	case "<", "<=", ">", ">=":
	default:
		return s.errf(`assertions[%d]: op must be one of "<", "<=", ">", ">=" (got %q)`, i, a.Op)
	}
	return nil
}
