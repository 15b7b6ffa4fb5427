package rtserve

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"servo"
	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/sim"
	"servo/internal/world"
)

// startServer boots a real-time flat-world instance on a loopback listener,
// pushing every tick.
func startServer(t *testing.T, cfg servo.Config) (*servo.Instance, *Server, string) {
	t.Helper()
	return startServerWith(t, cfg, 1)
}

// startServerWith is startServer with a quiet session pushed every
// pushTicks ticks.
func startServerWith(t *testing.T, cfg servo.Config, pushTicks uint64) (*servo.Instance, *Server, string) {
	t.Helper()
	cfg.RealTime = true
	if cfg.WorldType == "" {
		cfg.WorldType = "flat"
	}
	inst := servo.NewInstance(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(inst, Config{})
	inst.Locked(func() { srv.pushTicks = pushTicks })
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		ln.Close()
		inst.Stop()
	})
	return inst, srv, ln.Addr().String()
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEndToEndJoinAndUpdates(t *testing.T) {
	inst, srv, addr := startServer(t, servo.Config{Seed: 1})
	c, err := Dial(addr, "e2e-bot")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PlayerID() == 0 {
		t.Fatal("no player id assigned")
	}
	waitFor(t, "a session", func() bool { return srv.Stats().Sessions == 1 })
	var players int
	inst.Locked(func() { players = inst.Server().PlayerCount() })
	if players != 1 {
		t.Fatalf("server has %d players, want 1", players)
	}
	waitFor(t, "state updates and chunks", func() bool {
		u, ch := c.Stats()
		return u >= 3 && ch >= 1
	})
}

func TestEndToEndMovement(t *testing.T) {
	_, _, addr := startServer(t, servo.Config{Seed: 2})
	c, err := Dial(addr, "mover")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Move(30, 0, 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "avatar movement visible in updates", func() bool {
		x, _, ok := c.Position(c.PlayerID())
		return ok && x > 10
	})
}

// TestMoveOutsideWireRangeIsRefused: a client's MsgMove past the int32
// block range the wire formats name positions in (x = 2^40, and +Inf) is
// refused and counted by a store-backed server, and the avatar stays
// where it was. Carried out, the first would put the avatar at chunk
// 2^36, whose encoding stores an int32 position, so its generated
// terrain would come back under a position near the origin; the second
// would put it at X = MinInt64.
func TestMoveOutsideWireRangeIsRefused(t *testing.T) {
	inst, _, addr := startServer(t, servo.Config{Seed: 2, Servo: servo.AllServerless()})
	c, err := Dial(addr, "mover")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tick := func() (n uint64) {
		inst.Locked(func() { n = inst.Server().Tick() })
		return n
	}
	for i, x := range []float64{1 << 40, math.Inf(1)} {
		if err := c.Move(x, 0, 1e15); err != nil {
			t.Fatal(err)
		}
		t0 := tick()
		waitFor(t, "five ticks", func() bool { return tick() >= t0+5 })
		inst.Locked(func() {
			srv := inst.Server()
			if n := srv.MovesRefused.Value(); n != int64(i+1) {
				t.Errorf("move to x = %g: MovesRefused = %d, want %d", x, n, i+1)
			}
			for _, p := range srv.Players() {
				if pos := p.Pos(); pos.X < -1000 || pos.X > 1000 {
					t.Errorf("move to x = %g: the avatar is at %v", x, pos)
				}
			}
			for _, cp := range srv.World().LoadedChunks() {
				if cp.X < -1<<20 || cp.X > 1<<20 {
					t.Errorf("move to x = %g: %v is loaded", x, cp)
				}
			}
		})
	}
	if err := c.Move(30, 0, 100); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an in-range move visible in updates", func() bool {
		x, _, ok := c.Position(c.PlayerID())
		return ok && x > 10
	})
}

func TestEndToEndBlockPlacement(t *testing.T) {
	inst, _, addr := startServer(t, servo.Config{Seed: 3})
	c, err := Dial(addr, "builder")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	target := world.BlockPos{X: 3, Y: 20, Z: 3}
	if err := c.PlaceBlock(target, world.Block{ID: world.Stone}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block to appear in the world", func() bool {
		var got world.Block
		inst.Locked(func() {
			if c := inst.Server().World().Chunk(target.Chunk()); c != nil {
				got = c.At(target.X, target.Y, target.Z) // chunk (0, 0): local = absolute
			}
		})
		return got.ID == world.Stone
	})
}

func TestEndToEndMultipleClientsSeeEachOther(t *testing.T) {
	_, srv, addr := startServer(t, servo.Config{Seed: 4})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, "two sessions", func() bool { return srv.Stats().Sessions == 2 })
	waitFor(t, "client a to see client b", func() bool {
		_, _, ok := a.Position(b.PlayerID())
		return ok
	})
}

func TestDisconnectCleansUp(t *testing.T) {
	inst, srv, addr := startServer(t, servo.Config{Seed: 5})
	c, err := Dial(addr, "quitter")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session", func() bool { return srv.Stats().Sessions == 1 })
	c.Close()
	waitFor(t, "session cleanup", func() bool { return srv.Stats().Sessions == 0 })
	waitFor(t, "player removal", func() bool {
		var n int
		inst.Locked(func() { n = inst.Server().PlayerCount() })
		return n == 0
	})
}

// TestServedChunksDecode: every chunk a client is streamed decodes, and
// equals the server's chunk at that position.
func TestServedChunksDecode(t *testing.T) {
	inst, _, addr := startServer(t, servo.Config{Seed: 6})
	c := dialRaw(t, addr, "chunky")
	for n := 0; n < 8; {
		m, err := c.r.Next()
		if err != nil {
			t.Fatalf("after %d chunks: %v", n, err)
		}
		if m.Type != netproto.MsgChunkData {
			continue
		}
		got, err := world.DecodeChunk(m.ChunkData)
		if err != nil {
			t.Fatalf("chunk %d does not decode: %v", n, err)
		}
		inst.Locked(func() {
			if want := inst.Server().World().Chunk(got.Pos); want == nil || !got.Equal(want) {
				t.Errorf("chunk %d at %v differs from the server's (loaded: %v)", n, got.Pos, want != nil)
			}
		})
		n++
	}
}

// TestGhostAvatarsInStateUpdates: ghost avatars — replicated from a
// neighbouring shard by the cluster's visibility bus — merge into the
// protocol state updates under negated ids, so a client near a region
// border sees one continuous world.
func TestGhostAvatarsInStateUpdates(t *testing.T) {
	inst, _, addr := startServer(t, servo.Config{Seed: 9})
	c, err := Dial(addr, "viewer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inst.Locked(func() {
		inst.Server().UpsertGhost(0, "neighbour", 20, 30, 1, 1)
	})
	waitFor(t, "the ghost avatar", func() bool {
		_, _, ok := c.Position(-1)
		return ok
	})
	x, z, _ := c.Position(-1)
	if x != 20 || z != 30 {
		t.Fatalf("ghost at (%g, %g), want (20, 30)", x, z)
	}
	// The viewer's own avatar still arrives under its positive id.
	if _, _, ok := c.Position(c.PlayerID()); !ok {
		t.Fatal("local avatar missing from updates")
	}
	// Promotion removes the ghost from subsequent updates.
	inst.Locked(func() { inst.Server().RemoveGhost(0) })
	waitFor(t, "ghost removal", func() bool {
		var n int
		inst.Locked(func() { n = inst.Server().GhostCount() })
		return n == 0
	})
}

// benchServer builds a bare game server populated with local players and
// cross-shard ghosts, the avatar mix the push loop batches every tick.
func benchServer(players, ghosts int) *mve.Server {
	srv := mve.NewServer(sim.NewLoop(1), mve.Config{WorldType: "flat"})
	for i := 0; i < players; i++ {
		srv.ConnectAt(fmt.Sprintf("p%d", i), nil, float64(i), float64(i))
	}
	for i := 0; i < ghosts; i++ {
		srv.UpsertGhost(i, fmt.Sprintf("g%d", i), float64(i), -float64(i), 1, 1)
	}
	return srv
}

// TestAppendAvatarsBatchesPlayersAndGhosts: one snapshot coalesces every
// local player (positive id) and every ghost (negated id) into a single
// buffer, and a warmed buffer is refilled without allocating.
func TestAppendAvatarsBatchesPlayersAndGhosts(t *testing.T) {
	srv := benchServer(8, 3)
	buf := appendAvatars(nil, srv)
	if len(buf) != 11 {
		t.Fatalf("batched %d avatars, want 11", len(buf))
	}
	pos, neg := 0, 0
	for _, a := range buf {
		if a.ID >= 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos != 8 || neg != 3 {
		t.Fatalf("batch has %d players / %d ghosts, want 8 / 3", pos, neg)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = appendAvatars(buf[:0], srv)
	}); allocs != 0 {
		t.Fatalf("warmed batch refill allocates %.1f times per push, want 0", allocs)
	}
}

// BenchmarkAppendAvatars measures the per-push avatar batching fast path
// (100 players + 20 ghosts): the buffer is reused, so steady state is
// allocation-free.
func BenchmarkAppendAvatars(b *testing.B) {
	srv := benchServer(100, 20)
	buf := appendAvatars(nil, srv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendAvatars(buf[:0], srv)
	}
	_ = buf
}
