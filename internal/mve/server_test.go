package mve

import (
	"math/rand"
	"testing"
	"time"

	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/world"
)

// blockAt reads the block at p from w, or air if its chunk is not loaded.
func blockAt(w *world.World, p world.BlockPos) world.Block {
	c := w.Chunk(p.Chunk())
	if c == nil {
		return world.Block{}
	}
	o := c.Pos.Origin()
	return c.At(p.X-o.X, p.Y, p.Z-o.Z)
}

// behaviorFunc adapts a function to the Behavior interface.
type behaviorFunc func(r *rand.Rand, p *Player, s *Server) []Action

func (f behaviorFunc) Actions(r *rand.Rand, p *Player, s *Server) []Action { return f(r, p, s) }

// runFor drives the loop for d of virtual time.
func runFor(loop *sim.Loop, d time.Duration) {
	loop.RunUntil(loop.Now() + d)
}

func newFlatServer(seed int64) (*sim.Loop, *Server) {
	loop := sim.NewLoop(seed)
	s := NewServer(loop, Config{Profile: ProfileOpencraft, WorldType: "flat", Seed: seed})
	return loop, s
}

func TestServerTicksAtFixedRate(t *testing.T) {
	loop, s := newFlatServer(1)
	s.Start()
	runFor(loop, 10*time.Second)
	// 20 Hz for 10 s ≈ 200 ticks (the server is unloaded, so no overruns).
	n := s.TickDurations.Len()
	if n < 195 || n > 201 {
		t.Fatalf("ticks in 10s = %d, want ≈ 200", n)
	}
	if s.Tick() != uint64(n) {
		t.Fatalf("tick counter %d != samples %d", s.Tick(), n)
	}
}

func TestServerStop(t *testing.T) {
	loop, s := newFlatServer(1)
	s.Start()
	runFor(loop, time.Second)
	s.Stop()
	runFor(loop, time.Second)
	n := s.TickDurations.Len()
	runFor(loop, 5*time.Second)
	if s.TickDurations.Len() != n {
		t.Fatal("server kept ticking after Stop")
	}
}

func TestConnectDisconnect(t *testing.T) {
	loop, s := newFlatServer(1)
	p1 := s.Connect("alice", nil)
	p2 := s.Connect("bob", nil)
	if s.PlayerCount() != 2 {
		t.Fatalf("players = %d, want 2", s.PlayerCount())
	}
	if got := s.Players(); got[0].ID != p1.ID || got[1].ID != p2.ID {
		t.Fatal("player order must follow join order")
	}
	s.Disconnect(p1.ID)
	if s.PlayerCount() != 1 || s.Players()[0].ID != p2.ID {
		t.Fatal("disconnect removed the wrong player")
	}
	s.Disconnect(p1.ID) // double disconnect must be safe
	_ = loop
}

func TestMovementIntegration(t *testing.T) {
	loop, s := newFlatServer(1)
	start := false
	moved := false
	p := s.Connect("walker", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if !start || moved {
			return nil
		}
		moved = true
		return []Action{MoveTo(10, 0, 2)} // 10 blocks at 2 blocks/s = 5 s
	}))
	s.Start()
	// Let the join-time terrain burst settle so ticks run at 20 Hz (an
	// overloaded server legitimately moves avatars slower per second,
	// since movement integrates per tick).
	runFor(loop, 30*time.Second)
	start = true
	runFor(loop, 2*time.Second)
	if p.X < 3 || p.X > 5 {
		t.Fatalf("after 2s at 2 b/s, X = %v, want ≈ 4", p.X)
	}
	runFor(loop, 5*time.Second)
	if p.X < 9.99 || p.X > 10.01 || p.Z != 0 {
		t.Fatalf("avatar did not settle at destination: (%v, %v)", p.X, p.Z)
	}
	if p.Moving() {
		t.Fatal("avatar still moving at destination")
	}
}

func TestPlaceAndBreakBlocks(t *testing.T) {
	loop, s := newFlatServer(1)
	step := 0
	target := world.BlockPos{X: 2, Y: 10, Z: 2}
	s.Connect("builder", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		step++
		switch step {
		case 1:
			return []Action{{Kind: ActionPlaceBlock, Pos: target, Block: world.Block{ID: world.Stone}}}
		case 2:
			return []Action{{Kind: ActionBreakBlock, Pos: target}}
		}
		return nil
	}))
	s.Start()
	runFor(loop, 60*time.Millisecond)
	if got := blockAt(s.World(), target); got.ID != world.Stone {
		t.Fatalf("after place, block = %v", got)
	}
	runFor(loop, 60*time.Millisecond)
	if got := blockAt(s.World(), target); got.ID != world.Air {
		t.Fatalf("after break, block = %v", got)
	}
	if s.ActionCount.Value() != 2 {
		t.Fatalf("actions = %d, want 2", s.ActionCount.Value())
	}
}

func TestSpawnConstructWritesFootprint(t *testing.T) {
	_, s := newFlatServer(1)
	c := sc.NewClock(3, 1)
	anchor := world.BlockPos{X: 4, Y: 5, Z: 4}
	id := s.SpawnConstruct(c, anchor)
	if id == 0 {
		t.Fatal("SpawnConstruct returned zero id")
	}
	if s.SCs().Count() != 1 {
		t.Fatal("construct not registered with the backend")
	}
	// The anchor cell (an inverter) must be mirrored into the world.
	if got := blockAt(s.World(), anchor); got.ID != world.Inverter {
		t.Fatalf("anchor block = %v, want inverter", got)
	}
}

func TestBreakingConstructBlockInvalidates(t *testing.T) {
	loop, s := newFlatServer(1)
	c := sc.NewClock(3, 1)
	anchor := world.BlockPos{X: 4, Y: 5, Z: 4}
	id := s.SpawnConstruct(c, anchor)
	before := s.SCs().(*LocalSC).constructs[id].BlockCount()

	fired := false
	s.Connect("griefer", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if fired {
			return nil
		}
		fired = true
		return []Action{{Kind: ActionBreakBlock, Pos: anchor}}
	}))
	s.Start()
	runFor(loop, 100*time.Millisecond)
	after := s.SCs().(*LocalSC).constructs[id].BlockCount()
	if after != before-1 {
		t.Fatalf("construct block count %d → %d, want a cell removed", before, after)
	}
	if got := blockAt(s.World(), anchor); got.ID != world.Air {
		t.Fatal("world block not removed")
	}
}

func TestTerrainGeneratesAroundMovingPlayer(t *testing.T) {
	loop, s := newFlatServer(2)
	s.Connect("explorer", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		return []Action{MoveTo(p.X+1000, 0, 8)}
	}))
	s.Start()
	runFor(loop, 60*time.Second) // 480 blocks of travel past the preload
	if s.ChunksApplied.Value() == 0 {
		t.Fatal("no chunks were applied on the loop")
	}
	if s.ChunksSent.Value() == 0 {
		t.Fatal("no chunks were sent to the client")
	}
}

func TestChunkSendThrottle(t *testing.T) {
	loop, s := newFlatServer(3)
	p := s.Connect("static", nil)
	s.Start()
	// The spawn area is preloaded; the initial view must stream to the
	// client at most maxChunkSendsPerTick per tick.
	runFor(loop, 300*time.Millisecond)
	maxPerTick := maxChunkSendsPerTick
	if p.ChunksReceived > (6+1)*maxPerTick {
		t.Fatalf("client received %d chunks in 6 ticks, throttle is %d/tick", p.ChunksReceived, maxPerTick)
	}
	runFor(loop, time.Minute)
	// Eventually the whole preloaded view area must arrive.
	if p.ChunksReceived < 200 {
		t.Fatalf("client received only %d chunks of the spawn view", p.ChunksReceived)
	}
}

func TestUnloadFarChunksHaltsAndResumesConstructs(t *testing.T) {
	loop, s := newFlatServer(4)
	// A construct near spawn.
	id := s.SpawnConstruct(sc.NewClock(3, 1), world.BlockPos{X: 2, Y: 5, Z: 2})
	_ = id
	// A player who teleports far away (move at high speed) and back.
	phase := 0
	s.Connect("traveler", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if phase == 0 {
			phase = 1
			return []Action{MoveTo(4000, 0, 100)} // sprint far away
		}
		return nil
	}))
	s.Start()
	runFor(loop, 60*time.Second)
	if s.SCs().Count() != 0 {
		t.Fatalf("construct not halted after its terrain unloaded (count=%d)", s.SCs().Count())
	}
	if s.World().Loaded(world.ChunkPos{X: 0, Z: 0}) {
		t.Fatal("spawn chunk still loaded with the player 4000 blocks away")
	}
	// Come back (and stop moving): the construct must resume.
	home := s.Players()[0]
	home.X, home.Z = 0, 0
	home.destX, home.destZ, home.speed = 0, 0, 0
	runFor(loop, 30*time.Second)
	if s.SCs().Count() != 1 {
		t.Fatalf("construct did not resume on reload (count=%d)", s.SCs().Count())
	}
}

func TestTickDurationGrowsWithPlayers(t *testing.T) {
	meanTick := func(players int) time.Duration {
		loop, s := newFlatServer(5)
		for i := 0; i < players; i++ {
			s.Connect("p", nil)
		}
		s.Start()
		runFor(loop, 30*time.Second)
		return s.TickDurations.Mean()
	}
	if m10, m150 := meanTick(10), meanTick(150); m150 <= m10 {
		t.Fatalf("tick mean must grow with players: 10→%v 150→%v", m10, m150)
	}
}

func TestBaselineBimodalWithConstructs(t *testing.T) {
	// Fig. 7b: with SCs simulated every other tick, the tick distribution
	// is bimodal — p75 far above p25.
	loop, s := newFlatServer(6)
	for i := 0; i < 50; i++ {
		s.SpawnConstruct(sc.BuildSized(250), world.BlockPos{X: i * 40, Y: 5, Z: 10})
	}
	s.Start()
	runFor(loop, 30*time.Second)
	b := s.TickDurations.Box()
	if float64(b.P75) < 2*float64(b.P25) {
		t.Fatalf("expected bimodal ticks (every-other-tick SCs): %+v", b)
	}
}

func TestServoProfileUnimodalWithLocalBackend(t *testing.T) {
	// Sanity check of the profile flag: with SCEveryOtherTick=false the
	// distribution collapses to one mode even with the local backend.
	loop := sim.NewLoop(6)
	s := NewServer(loop, Config{Profile: ProfileServo, WorldType: "flat"})
	for i := 0; i < 50; i++ {
		s.SpawnConstruct(sc.BuildSized(250), world.BlockPos{X: i * 40, Y: 5, Z: 10})
	}
	s.Start()
	runFor(loop, 30*time.Second)
	b := s.TickDurations.Box()
	if float64(b.P75) > 1.5*float64(b.P25) {
		t.Fatalf("expected unimodal ticks: %+v", b)
	}
}

func TestMinViewMarginFullWhenLoaded(t *testing.T) {
	loop, s := newFlatServer(7)
	s.Connect("p", nil)
	s.Start()
	runFor(loop, 30*time.Second) // give generation time to fill the view
	if got := s.MinViewMargin(); got != s.Config().ViewDistance {
		t.Fatalf("MinViewMargin = %d, want full view distance %d", got, s.Config().ViewDistance)
	}
}

func TestDeterministicTickTrace(t *testing.T) {
	trace := func() []time.Duration {
		loop, s := newFlatServer(42)
		for i := 0; i < 20; i++ {
			s.SpawnConstruct(sc.NewClock(3, 1), world.BlockPos{X: i * 20, Y: 5, Z: 0})
		}
		for i := 0; i < 5; i++ {
			s.Connect("p", &trivialMover{})
		}
		s.Start()
		runFor(loop, 10*time.Second)
		return s.TickDurations.Values()
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d duration differs: %v vs %v", i, a[i], b[i])
		}
	}
}

type trivialMover struct{ n int }

func (m *trivialMover) Actions(r *rand.Rand, p *Player, s *Server) []Action {
	m.n++
	if m.n%20 != 1 {
		return nil
	}
	return []Action{MoveTo(float64(r.Intn(40)), float64(r.Intn(40)), 2)}
}

func TestProfileString(t *testing.T) {
	if ProfileOpencraft.String() != "Opencraft" || ProfileMinecraft.String() != "Minecraft" ||
		ProfileServo.String() != "Servo" || Profile(0).String() != "unknown" {
		t.Fatal("profile names wrong")
	}
	if ActionMove.String() != "move" || ActionKind(99).String() == "" {
		t.Fatal("action names wrong")
	}
}

func TestChatFansOut(t *testing.T) {
	loop, s := newFlatServer(8)
	sent := false
	s.Connect("chatter", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if sent {
			return nil
		}
		sent = true
		return []Action{{Kind: ActionChat}}
	}))
	for i := 0; i < 9; i++ {
		s.Connect("listener", nil)
	}
	s.Start()
	runFor(loop, 100*time.Millisecond)
	if got := s.ChatsDelivered.Value(); got != 10 {
		t.Fatalf("chat deliveries = %d, want 10 (all players)", got)
	}
}
