package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/world"
)

// behaviorFunc adapts a function to the mve.Behavior interface.
type behaviorFunc func(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action

func (f behaviorFunc) Actions(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action {
	return f(r, p, s)
}

func TestBaselineAssemblyHasNoServerlessParts(t *testing.T) {
	loop := sim.NewLoop(1)
	sys := New(loop, Config{Profile: mve.ProfileOpencraft, WorldType: "flat"})
	if sys.Platform != nil || sys.SpecExec != nil || sys.TGBackend != nil {
		t.Fatal("baseline assembly created serverless components")
	}
	sys.Server.Start()
	loop.RunUntil(time.Second)
	if sys.Server.TickDurations.Len() == 0 {
		t.Fatal("baseline server did not tick")
	}
}

func TestFullServoAssembly(t *testing.T) {
	loop := sim.NewLoop(2)
	sys := New(loop, Config{
		WorldType:    "flat",
		ServerlessSC: true,
		ServerlessTG: true,
		ServerlessRS: true,
	})
	if sys.Platform == nil || sys.SpecExec == nil || sys.TGBackend == nil ||
		sys.Shards[0].Cache == nil || sys.Shards[0].RStore == nil || sys.Remote == nil {
		t.Fatal("full Servo assembly is missing components")
	}
	if sys.SCFn == nil || sys.TGFn == nil {
		t.Fatal("functions not deployed")
	}
	sys.Server.SpawnConstruct(sc.NewClock(3, 1), world.BlockPos{X: 2, Y: 5, Z: 2})
	sys.Server.ConnectAt("p", nil, 0, 0)
	sys.Server.Start()
	loop.RunUntil(30 * time.Second)
	if sys.SCFn.Invocations.Count() == 0 {
		t.Fatal("construct was never offloaded")
	}
	if sys.Server.TickDurations.Len() < 500 {
		t.Fatalf("only %d ticks in 30s", sys.Server.TickDurations.Len())
	}
}

func TestServoServerlessSCMatchesLocalSimulation(t *testing.T) {
	// End-to-end determinism: the same construct in a Servo server and in
	// a baseline server goes through identical states tick for tick.
	loopA := sim.NewLoop(3)
	servo := New(loopA, Config{WorldType: "flat", ServerlessSC: true})
	loopB := sim.NewLoop(3)
	baseline := New(loopB, Config{Profile: mve.ProfileServo, WorldType: "flat"})
	// Use the Servo profile for the baseline too so its LocalSC steps
	// every tick like the speculative unit does.

	// Each backend keeps the construct it is given as the authoritative
	// state, so the test reads both through the pointers it passed. A
	// clock cycles through its states (a lamp bank settles after one
	// tick), so the speculative side replays a detected loop.
	c := sc.NewClock(3, 2)
	anchor := world.BlockPos{X: 4, Y: 5, Z: 4}
	a, b := c.Clone(), c.Clone()
	servo.Server.SpawnConstruct(a, anchor)
	baseline.Server.SpawnConstruct(b, anchor)

	servo.Server.Start()
	baseline.Server.Start()
	for i := 0; i < 200; i++ {
		loopA.RunUntil(loopA.Now() + 50*time.Millisecond)
		loopB.RunUntil(loopB.Now() + 50*time.Millisecond)
		if a.Hash() != b.Hash() {
			t.Fatalf("tick %d: Servo construct state diverged from baseline", i)
		}
	}
}

func TestServerlessTGFillsViewWithoutLocalWorkers(t *testing.T) {
	loop := sim.NewLoop(4)
	sys := New(loop, Config{WorldType: "default", ServerlessTG: true})
	p := sys.Server.ConnectAt("p", nil, 0, 0)
	sys.Server.Start()
	loop.RunUntil(time.Second)
	p.X = 500 // leave the preloaded spawn region
	loop.RunUntil(2 * time.Minute)
	if got := sys.Server.MinViewMargin(); got != sys.Server.Config().ViewDistance {
		t.Fatalf("view margin %d after 2 min of serverless generation", got)
	}
	if sys.TGFn.Invocations.Count() == 0 {
		t.Fatal("no generation invocations")
	}
	if busy, queued := sys.TGBackend.Load(); busy != 0 || queued != 0 {
		t.Fatal("serverless backend must report no local load")
	}
}

func TestRemoteStorageRoundTripsChunks(t *testing.T) {
	// Generate terrain, let it flush to remote storage, drop the world,
	// and verify a second server loads identical chunks from storage.
	loop := sim.NewLoop(5)
	sysA := New(loop, Config{WorldType: "default", Seed: 9, ServerlessRS: true})
	// An explorer walks beyond the preloaded spawn region so fresh terrain
	// goes through the demand-generation path and is persisted.
	p := sysA.Server.ConnectAt("p", nil, 0, 0)
	sysA.Server.Start()
	loop.RunUntil(time.Second)
	p.X = 400 // teleport outside the preload; the scan demands new chunks
	loop.RunUntil(90 * time.Second)
	sysA.Server.Stop()
	sysA.Shards[0].Cache.Flush()
	loop.RunUntil(loop.Now() + 10*time.Second)
	if sysA.Remote.Len() == 0 {
		t.Fatal("nothing persisted to remote storage")
	}

	// A chunk near the teleport target went through demand generation.
	pos := world.ChunkPos{X: 25, Z: 0}
	want := sysA.Server.World().Chunk(pos)
	if want == nil {
		t.Fatal("test chunk not loaded in source world")
	}

	// A fresh store stack over the same remote must return the same chunk.
	sysB := &System{Remote: sysA.Remote}
	_ = sysB
	var got *world.Chunk
	store := &uncachedStore{remote: sysA.Remote}
	store.Load(pos, func(c *world.Chunk, ok bool) {
		if ok {
			got = c
		}
	})
	loop.RunUntil(loop.Now() + 5*time.Second)
	if got == nil {
		t.Fatal("chunk not found in remote storage")
	}
	if !got.Equal(want) {
		t.Fatal("persisted chunk differs from in-memory chunk")
	}
}

func TestUncachedStoreMissingChunk(t *testing.T) {
	loop := sim.NewLoop(6)
	store := &uncachedStore{remote: blob.NewStore(loop, blob.TierLocal)}
	called := false
	store.Load(world.ChunkPos{X: 5, Z: 5}, func(c *world.Chunk, ok bool) {
		called = true
		if ok || c != nil {
			t.Error("missing chunk must report ok=false")
		}
	})
	loop.Run()
	if !called {
		t.Fatal("callback never delivered")
	}
}

func TestDefaultFnConfigsCalibrated(t *testing.T) {
	scCfg := DefaultSCFnConfig()
	if scCfg.NsPerWorkUnit <= 0 {
		t.Fatal("SC function speed not calibrated")
	}
	// One step of the 252-block construct ≈ 2 ms at one vCPU.
	probe := sc.BuildSized(252).Clone()
	units := probe.Step()
	stepTime := time.Duration(units) * scCfg.NsPerWorkUnit
	if stepTime < 1500*time.Microsecond || stepTime > 2500*time.Microsecond {
		t.Fatalf("252-block step time = %v, want ≈ 2ms", stepTime)
	}

	tgCfg := DefaultTGFnConfig()
	genTime := time.Duration((12800)) * tgCfg.NsPerWorkUnit
	if genTime < 500*time.Millisecond || genTime > 700*time.Millisecond {
		t.Fatalf("chunk generation time = %v, want ≈ 600ms", genTime)
	}
}

func TestSCAdapterModifyPath(t *testing.T) {
	loop := sim.NewLoop(7)
	sys := New(loop, Config{WorldType: "flat", ServerlessSC: true})
	id := sys.Server.SpawnConstruct(sc.NewClock(3, 1), world.BlockPos{X: 2, Y: 5, Z: 2})
	if !sys.Server.SCs().Modify(id, func(c *sc.Construct) {}) {
		t.Fatal("Modify through the adapter failed")
	}
	if sys.Server.SCs().Modify(999, func(c *sc.Construct) {}) {
		t.Fatal("Modify of unknown id must fail")
	}
	sys.Server.SCs().Remove(id)
	if sys.Server.SCs().Count() != 0 {
		t.Fatal("Remove through the adapter failed")
	}
}

// TestOneShardAssemblyIsACluster: Shards 0 and 1 take the same assembly
// path as any other count and come out as a one-shard cluster whose
// shard 0 is System.Server.
func TestOneShardAssemblyIsACluster(t *testing.T) {
	for _, shards := range []int{0, 1} {
		sys := New(sim.NewLoop(8), Config{WorldType: "flat", Shards: shards})
		if sys.Cluster == nil {
			t.Fatalf("Shards=%d: no cluster assembled", shards)
		}
		if n := sys.Cluster.AliveCount(); n != 1 || len(sys.Shards) != 1 {
			t.Fatalf("Shards=%d: %d cluster shards, %d component sets; want 1 and 1", shards, n, len(sys.Shards))
		}
		if sys.Cluster.Shard(0) != sys.Server {
			t.Fatalf("Shards=%d: Cluster.Shard(0) is not System.Server", shards)
		}
		if region := sys.Server.Config().Region; !region.All() {
			t.Fatalf("Shards=%d: the only shard owns %v, want everything", shards, region)
		}
	}
}

// TestOneShardStartReadsNothingFromStorage pins why a one-shard boot
// keeps its ownership table in memory: a wired TableStore makes
// Cluster.Start read the table back, and that read's latency draw moves
// the shared clock RNG under every storage-backed one-shard report.
func TestOneShardStartReadsNothingFromStorage(t *testing.T) {
	sys := New(sim.NewLoop(8), Config{WorldType: "flat", ServerlessRS: true})
	reads := sys.Remote.Reads.Value()
	sys.Cluster.Start()
	if got := sys.Remote.Reads.Value(); got != reads {
		t.Fatalf("Cluster.Start on a one-shard system issued %d storage read(s)", got-reads)
	}
}

// TestShardedAssemblySharesSubstrate checks the cluster wiring: N game
// loops, one platform (shared warm pools), one blob store, per-shard
// caches and managers, and a working cross-shard handoff path.
func TestShardedAssemblySharesSubstrate(t *testing.T) {
	loop := sim.NewLoop(9)
	sys := New(loop, Config{
		WorldType:    "flat",
		ViewDistance: 32,
		Shards:       4,
		Topology:     world.BandTopology{BandChunks: 4},
		ServerlessSC: true,
		ServerlessTG: true,
		ServerlessRS: true,
	})
	if sys.Cluster == nil {
		t.Fatal("no cluster assembled")
	}
	if len(sys.Shards) != 4 || sys.Cluster.AliveCount() != 4 {
		t.Fatalf("shard count wrong: %d / %d", len(sys.Shards), sys.Cluster.AliveCount())
	}
	if sys.Server != sys.Shards[0].Server {
		t.Fatal("legacy Server field must alias shard 0")
	}
	seen := map[*mve.Server]bool{}
	for i, sh := range sys.Shards {
		if sh.Server == nil || sh.SpecExec == nil || sh.TGBackend == nil || sh.Cache == nil {
			t.Fatalf("shard %d missing components: %+v", i, sh)
		}
		if seen[sh.Server] {
			t.Fatalf("shard %d reuses another shard's server", i)
		}
		seen[sh.Server] = true
		if sh.Cache.Remote() != sys.Remote {
			t.Fatalf("shard %d's cache does not flush into the shared store", i)
		}
		// The region each server gates chunk persistence with.
		region := sh.Server.Config().Region
		if region.Index != i || !region.Contains(sys.Cluster.Home(i).Chunk()) {
			t.Fatalf("shard %d owns region %v", i, region)
		}
	}
	// One platform, functions registered once: a construct simulated on a
	// shard other than 0 invokes the deployment System.SCFn names (a
	// per-shard Register would replace it on the platform and leave
	// SCFn stale).
	sys.Shards[1].Server.SpawnConstruct(sc.NewClock(3, 2), sys.Cluster.Home(1))
	// A player walking right out of shard 0's band hands off through the
	// shared store.
	p := sys.Cluster.ConnectAt("mover", walkRight(200, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	sys.Cluster.Start()
	loop.RunUntil(60 * time.Second)
	if sys.SCFn.Invocations.Count() == 0 {
		t.Fatal("shard 1's construct did not invoke the shared construct function")
	}
	if sys.Cluster.Handoffs.Value() == 0 {
		t.Fatal("no handoff through the assembled cluster")
	}
	if p.Shard() == 0 {
		t.Fatal("player still on shard 0 after walking out of its band")
	}
	if sys.Cluster.HandoffLatency.Max() <= 0 {
		t.Fatal("store-backed handoff must have nonzero latency")
	}
	// The handoff persisted the player record on the shared store.
	stored, done := false, false
	sys.Remote.Get("player/mover", func(_ []byte, err error) { stored, done = err == nil, true })
	for !done {
		loop.RunUntil(loop.Now() + 50*time.Millisecond)
	}
	if !stored {
		t.Fatal("handoff did not persist the player record")
	}
}

// TestGridShardedAssembly checks the grid-topology wiring: contiguous
// default territories along the space-filling order, home tiles booted
// per shard, and a cross-shard handoff along the Z axis — the direction
// a band topology cannot split at all.
func TestGridShardedAssembly(t *testing.T) {
	loop := sim.NewLoop(17)
	topo := world.GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4}
	// No store: boot generation is synchronous, so the home-tile boot
	// centers are observable before the loop runs.
	sys := New(loop, Config{
		WorldType:    "flat",
		ViewDistance: 32,
		Shards:       4,
		Topology:     topo,
	})
	for _, tile := range []world.TileID{{X: 0, Z: 0}, {X: 3, Z: 1}, {X: 1, Z: 3}} {
		if got, want := sys.Cluster.TileCenter(tile), topo.Center(tile); got != want {
			t.Fatalf("cluster centers tile %v at %v, want %v", tile, got, want)
		}
	}
	// Each shard's home tile center is loaded at boot (the space-filling
	// initial placement): the server can host a player there immediately.
	for i := 0; i < 4; i++ {
		home := sys.Cluster.Home(i)
		if !sys.Shards[i].Server.World().Loaded(home.Chunk()) {
			t.Fatalf("shard %d's home tile %v not booted", i, home)
		}
		if got := sys.Cluster.ConnectAt(fmt.Sprintf("probe%d", i), nil, home).Shard(); got != i {
			t.Fatalf("shard %d's home block routes to shard %d", i, got)
		}
	}
	// A player walking along +Z crosses tile rows and hands off between
	// shards.
	p := sys.Cluster.ConnectAt("zwalker", walkDown(200, 8), world.BlockPos{X: 32, Y: 0, Z: 32})
	from := p.Shard()
	sys.Cluster.Start()
	loop.RunUntil(60 * time.Second)
	if sys.Cluster.Handoffs.Value() == 0 {
		t.Fatal("no handoff for a Z-axis walk on a grid topology")
	}
	if p.Shard() == from {
		t.Fatalf("player still on shard %d after walking out of its tile row", from)
	}
}

// walkDown issues one move order toward +Z.
func walkDown(z, speed float64) mve.Behavior {
	issued := false
	return behaviorFunc(func(_ *rand.Rand, p *mve.Player, _ *mve.Server) []mve.Action {
		if issued {
			return nil
		}
		issued = true
		return []mve.Action{mve.MoveTo(p.X, z, speed)}
	})
}

// walkRight issues one move order toward +X.
func walkRight(x, speed float64) mve.Behavior {
	issued := false
	return behaviorFunc(func(_ *rand.Rand, p *mve.Player, _ *mve.Server) []mve.Action {
		if issued {
			return nil
		}
		issued = true
		return []mve.Action{mve.MoveTo(x, p.Z, speed)}
	})
}
