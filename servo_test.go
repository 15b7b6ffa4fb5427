package servo

import (
	"strings"
	"testing"
	"time"

	"servo/internal/mve"
	"servo/internal/world"
)

func TestInstanceLifecycle(t *testing.T) {
	inst := NewInstance(Config{Seed: 3, WorldType: "flat", Servo: AllServerless()})
	defer inst.Stop()
	inst.SpawnConstruct(NewClockCircuit(), At(8, 5, 8))
	p := inst.Connect("alice", BehaviorRandom)
	if p == nil || p.Name != "alice" {
		t.Fatal("connect failed")
	}
	inst.Run(30 * time.Second)
	if inst.Now() < 30*time.Second {
		t.Fatalf("virtual time did not advance: %v", inst.Now())
	}
	stats := inst.TickStats()
	if stats.Box.N == 0 {
		t.Fatal("no tick samples")
	}
	if !stats.SupportsQoS {
		t.Fatalf("one random player must not break QoS: %v", stats)
	}
	if !strings.Contains(stats.String(), "qos=true") {
		t.Fatalf("stats string malformed: %s", stats)
	}
	inst.Disconnect(p)
	if inst.Server().PlayerCount() != 0 {
		t.Fatal("disconnect failed")
	}
}

func TestInstanceDefaultsAndReset(t *testing.T) {
	inst := NewInstance(Config{}) // all defaults: seed 1, Servo profile
	defer inst.Stop()
	inst.Run(5 * time.Second)
	if inst.TickStats().Box.N == 0 {
		t.Fatal("no ticks with default config")
	}
	inst.ResetStats()
	if inst.TickStats().Box.N != 0 {
		t.Fatal("ResetStats did not clear samples")
	}
	if inst.ViewMargin() <= 0 {
		t.Fatal("view margin must be positive with no players")
	}
}

func TestConstructBuilders(t *testing.T) {
	if NewClockCircuit().BlockCount() == 0 {
		t.Fatal("clock circuit empty")
	}
	if got := NewConstructSized(252).BlockCount(); got != 252 {
		t.Fatalf("NewConstructSized(252) = %d blocks", got)
	}
	if NewLampBank(3, 8).BlockCount() == 0 {
		t.Fatal("lamp bank empty")
	}
}

func TestBaselineProfileInstance(t *testing.T) {
	inst := NewInstance(Config{Seed: 5, WorldType: "flat", Profile: Opencraft})
	defer inst.Stop()
	if inst.System().Platform != nil {
		t.Fatal("baseline instance must not create a FaaS platform")
	}
	inst.Run(10 * time.Second)
	if inst.TickStats().Box.N == 0 {
		t.Fatal("baseline did not tick")
	}
}

func TestRealTimeInstance(t *testing.T) {
	inst := NewInstance(Config{Seed: 9, WorldType: "flat", RealTime: true})
	p := inst.Connect("rt", BehaviorBounded)
	inst.Run(300 * time.Millisecond) // wall-clock sleep
	var n int
	inst.Locked(func() { n = inst.TickStats().Box.N })
	if n < 2 {
		t.Fatalf("real-time instance ticked %d times in 300ms, want ≥ 2", n)
	}
	inst.Disconnect(p)
	inst.Stop()
}

func TestExperimentAPISurface(t *testing.T) {
	exps := ListExperiments()
	for _, name := range []string{"fig1", "fig7a", "fig8", "fig13", "tab1"} {
		if _, ok := exps[name]; !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	var sb strings.Builder
	if err := RunExperiment("tab2", DefaultExperimentOptions(), &sb); err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if !strings.Contains(sb.String(), "40%") {
		t.Fatalf("Table II output wrong:\n%s", sb.String())
	}
	if err := RunExperiment("bogus", DefaultExperimentOptions(), &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestDeterministicInstances(t *testing.T) {
	run := func() time.Duration {
		inst := NewInstance(Config{Seed: 21, WorldType: "flat", Servo: AllServerless()})
		defer inst.Stop()
		inst.SpawnConstruct(NewConstructSized(100), At(4, 5, 4))
		inst.Connect("p", BehaviorRandom)
		inst.Run(20 * time.Second)
		return inst.TickStats().Box.P95
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave different p95: %v vs %v", a, b)
	}
}

func TestShardedInstance(t *testing.T) {
	inst := NewInstance(Config{Seed: 5, WorldType: "flat", Shards: 2, Servo: Serverless{Storage: true}})
	defer inst.Stop()
	if inst.Cluster() == nil {
		t.Fatal("sharded instance has no cluster")
	}
	p := inst.Connect("bob", BehaviorRandom)
	if p == nil || p.Name != "bob" {
		t.Fatal("connect through the cluster failed")
	}
	inst.SpawnConstruct(NewClockCircuit(), At(8, 5, 8))
	inst.Run(30 * time.Second)
	if inst.TickStats().Box.N == 0 {
		t.Fatal("no pooled tick samples")
	}
	if inst.ViewMargin() <= 0 {
		t.Fatalf("view margin = %d around a bounded player", inst.ViewMargin())
	}
	if !inst.Disconnect(p) {
		t.Fatal("disconnect of a live sharded session reported failure")
	}
	if n := inst.Cluster().PlayerCount(); n != 0 {
		t.Fatalf("player count after disconnect = %d", n)
	}
}

// TestShardedDisconnectReportsNoOps pins the Disconnect contract, which
// is the same at every shard count because every instance resolves
// sessions through its cluster: a stale session pointer resolves by
// unique name, but with duplicate names the resolution must refuse
// (returning false) rather than guess and disconnect a different
// player's session.
func TestShardedDisconnectReportsNoOps(t *testing.T) {
	for _, shards := range []int{2, 1} {
		inst := NewInstance(Config{Seed: 6, WorldType: "flat", Shards: shards})
		p1 := inst.Connect("dup", BehaviorBounded)
		if !inst.Disconnect(p1) {
			t.Fatalf("shards=%d: first disconnect failed", shards)
		}
		if inst.Disconnect(p1) {
			t.Fatalf("shards=%d: repeated disconnect of the same session reported success", shards)
		}
		// Two live sessions now share the name; the stale p1 pointer matches
		// neither, and the name fallback is ambiguous — the disconnect must
		// no-op (false) instead of killing one of them at random.
		inst.Connect("dup", BehaviorBounded)
		inst.Connect("dup", BehaviorBounded)
		if inst.Disconnect(p1) {
			t.Fatalf("shards=%d: ambiguous stale disconnect reported success", shards)
		}
		if n := inst.Cluster().PlayerCount(); n != 2 {
			t.Fatalf("shards=%d: ambiguous stale disconnect removed a session: %d live, want 2", shards, n)
		}
		// A stale pointer with exactly one name match still resolves: the
		// handle behind the surviving name is the same player.
		p2 := inst.Connect("solo", BehaviorBounded)
		inst.Run(time.Second)
		if !inst.Disconnect(p2) {
			t.Fatalf("shards=%d: unique-name disconnect failed", shards)
		}
		if n := inst.Cluster().PlayerCount(); n != 2 {
			t.Fatalf("shards=%d: player count = %d after disconnecting solo, want 2", shards, n)
		}
		inst.Stop()
	}
}

// TestTopologyConfigRejectsInvalid pins the fail-fast contract: a
// misspelled kind, an overcommitted grid, or autoscale bounds the
// cluster cannot keep must panic at construction, never silently boot
// the band fallback or a cluster that can never scale down.
func TestTopologyConfigRejectsInvalid(t *testing.T) {
	expectPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewInstance did not panic", name)
			}
		}()
		NewInstance(cfg).Stop()
	}
	expectPanic("unknown kind", Config{Shards: 2, Topology: TopologyConfig{Kind: "Grid"}})
	expectPanic("more shards than tiles", Config{
		Shards:   20,
		Topology: TopologyConfig{Kind: "grid", TilesX: 4, TilesZ: 4},
	})
	expectPanic("autoscale min above default max", Config{
		Shards:    2,
		Autoscale: AutoscaleConfig{Enabled: true, MinShards: 5},
	})
	expectPanic("autoscale default max over grid", Config{
		Shards:    2,
		Topology:  TopologyConfig{Kind: "grid", TilesX: 3, TilesZ: 1},
		Autoscale: AutoscaleConfig{Enabled: true},
	})
}

// TestUnknownWorldTypePanics: a misspelt world type panics rather than
// boot the procedural default world in its place.
func TestUnknownWorldTypePanics(t *testing.T) {
	for _, wt := range []string{"flatt", "Default", "opencraft"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WorldType %q: NewInstance did not panic", wt)
				}
			}()
			NewInstance(Config{WorldType: wt}).Stop()
		}()
	}
}

// TestGridTopologyInstance boots a sharded instance over a 2-D grid
// topology through the public API and checks that a Z-axis spread of
// players lands on different shards — the placement a band topology
// cannot split.
func TestGridTopologyInstance(t *testing.T) {
	inst := NewInstance(Config{
		Seed:      7,
		WorldType: "flat",
		Shards:    4,
		Topology:  TopologyConfig{Kind: "grid", TilesX: 4, TilesZ: 4},
	})
	defer inst.Stop()
	cl := inst.Cluster()
	if cl == nil {
		t.Fatal("sharded instance has no cluster")
	}
	if cl.Topology().Tiles() != 16 {
		t.Fatalf("grid instance has %d tiles, want 16", cl.Topology().Tiles())
	}
	// Two players one tile apart along Z, same X.
	a := cl.ConnectAt("za", nil, cl.TileCenter(world.TileID{X: 0, Z: 0}))
	b := cl.ConnectAt("zb", nil, cl.TileCenter(world.TileID{X: 0, Z: 1}))
	if a.Shard() == b.Shard() {
		t.Fatalf("Z-separated players share shard %d; the grid is not splitting Z", a.Shard())
	}
	inst.Run(10 * time.Second)
	if inst.TickStats().Box.N == 0 {
		t.Fatal("grid instance did not tick")
	}
}

// ghostNamed returns s's ghost mirroring name, or nil, by walking the
// registry.
func ghostNamed(s *mve.Server, name string) *mve.GhostAvatar {
	var found *mve.GhostAvatar
	s.EachGhost(func(g *mve.GhostAvatar) {
		if g.Name == name {
			found = g
		}
	})
	return found
}

// TestVisibilityInstance: a sharded instance with visibility on mirrors
// border avatars as ghosts on the neighbouring shard, and rtserve-facing
// state (EachGhost) sees them.
func TestVisibilityInstance(t *testing.T) {
	inst := NewInstance(Config{
		Seed: 6, WorldType: "flat", Shards: 2,
		Visibility: VisibilityConfig{Enabled: true, Margin: 64},
	})
	defer inst.Stop()
	cl := inst.Cluster()
	// Band 0 spans x in [0,128) by default: stand flush against the seam.
	h := cl.ConnectAt("edge", nil, At(126, 0, 8))
	if h.Shard() != 0 {
		t.Fatalf("edge player on shard %d, want 0", h.Shard())
	}
	inst.Run(5 * time.Second)
	g := ghostNamed(cl.Shard(1), "edge")
	if g == nil {
		t.Fatal("no ghost of the border player on the neighbouring shard")
	}
	if g.Home != 0 {
		t.Fatalf("ghost home = %d, want 0", g.Home)
	}
	if cl.GhostCount() != 1 {
		t.Fatalf("ghost count = %d, want 1", cl.GhostCount())
	}
	if cl.VisibilityGaps.Value() != 0 {
		t.Fatalf("visibility gaps = %d on a single border pair", cl.VisibilityGaps.Value())
	}
}
