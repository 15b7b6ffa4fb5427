package servo

import (
	"strings"
	"testing"
	"time"
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
	if inst.loop.Now() < 30*time.Second {
		t.Fatalf("virtual time did not advance: %v", inst.loop.Now())
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

func TestInstanceDefaults(t *testing.T) {
	inst := NewInstance(Config{}) // all defaults: seed 1, Servo profile
	defer inst.Stop()
	inst.Run(5 * time.Second)
	if inst.TickStats().Box.N == 0 {
		t.Fatal("no ticks with default config")
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

// TestShardedInstance drives the session calls through the cluster
// router every instance is: a one-shard cluster over the serverless store.
// Two-shard routing (handoffs, stale session pointers) is tested in
// internal/cluster.
func TestShardedInstance(t *testing.T) {
	inst := NewInstance(Config{Seed: 5, WorldType: "flat", Servo: Serverless{Storage: true}})
	defer inst.Stop()
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
		t.Fatal("disconnect of a live session reported failure")
	}
	if n := inst.sys.Cluster.PlayerCount(); n != 0 {
		t.Fatalf("player count after disconnect = %d", n)
	}
}

// TestShardedDisconnectReportsNoOps pins the Disconnect contract, which
// holds because every instance resolves sessions through its cluster: a
// stale session pointer resolves by unique name, but with duplicate names
// the resolution must refuse (returning false) rather than guess and
// disconnect a different player's session. The two-shard case, where a
// handoff makes the pointer stale, is TestHandleOfResolvesStaleSessions
// in internal/cluster.
func TestShardedDisconnectReportsNoOps(t *testing.T) {
	inst := NewInstance(Config{Seed: 6, WorldType: "flat"})
	defer inst.Stop()
	p1 := inst.Connect("dup", BehaviorBounded)
	if !inst.Disconnect(p1) {
		t.Fatal("first disconnect failed")
	}
	if inst.Disconnect(p1) {
		t.Fatal("repeated disconnect of the same session reported success")
	}
	// Two live sessions now share the name; the stale p1 pointer matches
	// neither, and the name fallback is ambiguous — the disconnect must
	// no-op (false) instead of killing one of them at random.
	inst.Connect("dup", BehaviorBounded)
	inst.Connect("dup", BehaviorBounded)
	if inst.Disconnect(p1) {
		t.Fatal("ambiguous stale disconnect reported success")
	}
	if n := inst.sys.Cluster.PlayerCount(); n != 2 {
		t.Fatalf("ambiguous stale disconnect removed a session: %d live, want 2", n)
	}
	p2 := inst.Connect("solo", BehaviorBounded)
	inst.Run(time.Second)
	if !inst.Disconnect(p2) {
		t.Fatal("unique-name disconnect failed")
	}
	if n := inst.sys.Cluster.PlayerCount(); n != 2 {
		t.Fatalf("player count = %d after disconnecting solo, want 2", n)
	}
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
