package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/servo/rstore"
	"servo/internal/sim"
	"servo/internal/world"
)

// behaviorFunc adapts a function to the mve.Behavior interface.
type behaviorFunc func(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action

func (f behaviorFunc) Actions(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action {
	return f(r, p, s)
}

// stored reads key back from remote, running loop until the read lands,
// and reports whether remote held it.
func stored(loop *sim.Loop, remote *blob.Store, key string) bool {
	done, found := false, false
	remote.Get(key, func(_ []byte, err error) { done, found = true, err == nil })
	for !done {
		loop.RunUntil(loop.Now() + 50*time.Millisecond)
	}
	return found
}

// newTestCluster builds a cluster of plain (no serverless backends)
// servers on a fresh loop. Tile side 4 chunks → 64-block band tiles
// (the default band topology) unless cfg.Topology picks another tiling.
func newTestCluster(t *testing.T, seed int64, shards int, cfg Config) (*sim.Loop, *Cluster) {
	t.Helper()
	loop := sim.NewLoop(seed)
	cfg.Shards = shards
	if cfg.Topology == nil {
		cfg.Topology = world.BandTopology{BandChunks: 4}
	}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{
			WorldType:    "flat",
			ViewDistance: 32,
			Region:       region,
		})
	})
	return loop, c
}

// walker issues a single move order and then stays quiet.
func walker(x, z, speed float64) mve.Behavior {
	issued := false
	return behaviorFunc(func(_ *rand.Rand, _ *mve.Player, _ *mve.Server) []mve.Action {
		if issued {
			return nil
		}
		issued = true
		return []mve.Action{mve.MoveTo(x, z, speed)}
	})
}

func TestHandoffAcrossBoundary(t *testing.T) {
	loop, c := newTestCluster(t, 1, 2, Config{})
	// Band 0 (x in [0,64)) → shard 0; band 1 (x in [64,128)) → shard 1.
	p := c.ConnectAt("runner", walker(100, 8, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	if p.Shard() != 0 {
		t.Fatalf("spawned on shard %d, want 0", p.Shard())
	}
	sess := c.Session(p)
	sess.Inventory = 13
	c.Start()
	loop.RunUntil(30 * time.Second)

	if got := c.Handoffs.Value(); got != 1 {
		t.Fatalf("handoffs = %d, want exactly 1", got)
	}
	if p.Shard() != 1 {
		t.Fatalf("player on shard %d after crossing, want 1", p.Shard())
	}
	if c.Shard(0).PlayerCount() != 0 || c.Shard(1).PlayerCount() != 1 {
		t.Fatalf("session counts: shard0=%d shard1=%d", c.Shard(0).PlayerCount(), c.Shard(1).PlayerCount())
	}
	sess = c.Session(p)
	if sess == nil {
		t.Fatal("no session after handoff")
	}
	if sess.Inventory != 13 {
		t.Fatalf("inventory lost in handoff: %d", sess.Inventory)
	}
	// Movement state survived: the avatar finished its walk on the new
	// shard.
	if sess.X < 99 || sess.X > 101 {
		t.Fatalf("avatar did not keep walking after handoff: x=%g", sess.X)
	}
	if log := ofKinds(c, Handoff); len(log) != 1 || log[0].Shard != 0 || log[0].Peer != 1 || c.names[log[0].Player] != "runner" {
		t.Fatalf("handoff records wrong:\n%s", journalText(c))
	}
	if c.HandoffsOut[0].Value() != 1 || c.HandoffsIn[1].Value() != 1 {
		t.Fatalf("per-shard counters wrong: out0=%d in1=%d", c.HandoffsOut[0].Value(), c.HandoffsIn[1].Value())
	}
}

func TestHandoffHysteresisNoThrash(t *testing.T) {
	loop, c := newTestCluster(t, 2, 2, Config{})
	p := c.ConnectAt("osc", nil, world.BlockPos{X: 62, Y: 0, Z: 8})
	c.Start()
	// Teleport the avatar across the x=64 boundary between scans (scan
	// period 250ms, flips offset by 125ms), so consecutive scans always
	// see opposite sides: the two-scan hysteresis must never fire.
	far := false
	var flip func()
	flip = func() {
		if sess := c.Session(p); sess != nil {
			far = !far
			if far {
				sess.X = 66
			} else {
				sess.X = 62
			}
		}
		loop.After(250*time.Millisecond, flip)
	}
	loop.After(125*time.Millisecond, flip)
	loop.RunUntil(60 * time.Second)
	if got := c.Handoffs.Value(); got != 0 {
		t.Fatalf("boundary oscillation caused %d handoffs (thrash)", got)
	}
}

func TestHandoffThroughStoreSurvivesBrownout(t *testing.T) {
	loop := sim.NewLoop(4)
	remote := blob.NewStore(loop, blob.TierPremium)
	cfg := Config{Transfer: rstore.NewTransfer(remote), Shards: 2, Topology: world.BandTopology{BandChunks: 4}}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	p := c.ConnectAt("survivor", walker(100, 8, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	c.Session(p).Inventory = 21
	// A brownout for the whole run: half of reads and writes fail, and
	// everything is 5x slower. Retrying transfer must still deliver.
	remote.SetChaos(&blob.Chaos{ReadErrorRate: 0.5, WriteErrorRate: 0.5, LatencyFactor: 5})
	c.Start()
	loop.RunUntil(60 * time.Second)

	if got := c.Handoffs.Value(); got != 1 {
		t.Fatalf("handoffs = %d, want 1", got)
	}
	sess := c.Session(p)
	if sess == nil {
		t.Fatal("session lost")
	}
	if sess.Inventory != 21 {
		t.Fatalf("inventory lost through brownout handoff: %d", sess.Inventory)
	}
	if sess.X < 99 || sess.X > 101 {
		t.Fatalf("position lost through brownout handoff: x=%g", sess.X)
	}
	if remote.FaultsInjected.Value() == 0 {
		t.Fatal("brownout injected no faults; test proves nothing")
	}
	// The storage round-trip is the handoff latency: with a 5x brownout
	// it must be visible (well above one tick).
	if lat := c.HandoffLatency.Max(); lat < 10*time.Millisecond {
		t.Fatalf("handoff latency %v implausibly low for a brownout", lat)
	}
}

// TestHandleOfResolvesStaleSessions pins the two-shard HandleOf contract
// that servo.Instance.Disconnect relies on: a session pointer that a
// handoff made stale resolves by its unique name, a stale pointer whose
// name several live sessions bear resolves to nothing (so no other
// player's session is disconnected in its place), and a pointer whose
// handle is gone resolves to nothing.
func TestHandleOfResolvesStaleSessions(t *testing.T) {
	loop, c := newTestCluster(t, 6, 2, Config{})
	gone := c.Session(c.Connect("dup", nil))
	if h := c.HandleOf(gone); h == nil || !c.Disconnect(h.ID) {
		t.Fatal("first disconnect failed")
	}
	if c.HandleOf(gone) != nil {
		t.Fatal("a disconnected session still resolves")
	}
	c.Connect("dup", nil)
	c.Connect("dup", nil)
	if h := c.HandleOf(gone); h != nil {
		t.Fatalf("a stale pointer resolved to handle %d with its name ambiguous", h.ID)
	}
	// Band 0 (x in [0,64)) → shard 0; the walk hands solo off to shard 1,
	// which installs a fresh session object.
	solo := c.ConnectAt("solo", walker(100, 8, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	stale := c.Session(solo)
	c.Start()
	loop.RunUntil(30 * time.Second)
	if solo.Shard() != 1 || c.Session(solo) == stale {
		t.Fatalf("setup: solo on shard %d, session replaced %v; want shard 1 and a fresh session", solo.Shard(), c.Session(solo) != stale)
	}
	if h := c.HandleOf(stale); h != solo || !c.Disconnect(h.ID) {
		t.Fatal("a stale pointer with a unique name did not resolve to its handle")
	}
	if n := c.PlayerCount(); n != 2 {
		t.Fatalf("player count = %d after disconnecting solo, want the two dups", n)
	}
}

func TestDisconnectDuringHandoffDoesNotCrash(t *testing.T) {
	loop := sim.NewLoop(5)
	remote := blob.NewStore(loop, blob.TierStandard)
	cfg := Config{Transfer: rstore.NewTransfer(remote), Shards: 2, Topology: world.BandTopology{BandChunks: 4}}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	p := c.ConnectAt("quitter", walker(100, 8, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	c.Start()
	// Slow the store drastically so the handoff is in flight for a while.
	remote.SetChaos(&blob.Chaos{LatencyFactor: 50})
	// Disconnect as soon as the handoff starts.
	var poll func()
	poll = func() {
		if p.inflight {
			c.Disconnect(p.ID)
			return
		}
		loop.After(100*time.Millisecond, poll)
	}
	loop.After(100*time.Millisecond, poll)
	loop.RunUntil(2 * time.Minute)

	if c.PlayerCount() != 0 {
		t.Fatalf("player count = %d after disconnect, want 0", c.PlayerCount())
	}
	if c.Shard(0).PlayerCount()+c.Shard(1).PlayerCount() != 0 {
		t.Fatal("a shard still hosts the disconnected session")
	}
	// The mid-handoff state was persisted, not lost: a reconnect finds
	// the record.
	if !stored(loop, remote, rstore.PlayerKey("quitter")) {
		t.Fatal("mid-handoff disconnect lost the persisted player record")
	}
}

// TestHandoffDeterministicSequence runs the same seeded multi-player
// cluster twice and requires identical journals.
func TestHandoffDeterministicSequence(t *testing.T) {
	run := func() (string, int64) {
		loop, c := newTestCluster(t, 42, 4, Config{})
		for i := 0; i < 12; i++ {
			home := c.Home(i % 4)
			// Every player walks two bands to the right, guaranteeing
			// handoffs; speed varies by the clock RNG.
			speed := 4 + loop.RNG().Float64()*4
			c.ConnectAt(fmt.Sprintf("p%d", i), walker(float64(home.X+128), 8, speed), home)
		}
		c.Start()
		loop.RunUntil(2 * time.Minute)
		return journalText(c), c.Journal.Count(Handoff)
	}
	a, handoffs := run()
	b, _ := run()
	if handoffs == 0 {
		t.Fatal("no handoffs recorded; test proves nothing")
	}
	if a != b {
		t.Fatalf("journals differ:\n%s", firstDiff(a, b))
	}
}

// TestOneShardClusterScansOnlyOnceGrown pins the one condition the
// cluster keeps for a single shard: with one slot in the ownership table
// there is no boundary, so Start schedules no boundary scan; the AddShard
// that creates the second slot arms it, and a migration then hands the
// resident off like on any cluster.
func TestOneShardClusterScansOnlyOnceGrown(t *testing.T) {
	loop, c := newTestCluster(t, 31, 1, Config{})
	join := world.BlockPos{X: 0, Y: 0, Z: 8}
	p := c.ConnectAt("walker", walker(1000, 8, 8), join)
	c.Start()
	loop.RunUntil(150 * time.Second)
	sess := c.Session(p)
	if sess == nil || sess.X < 999 {
		t.Fatalf("walker did not cover its 1000 blocks: %+v", sess)
	}
	if got := c.Handoffs.Value(); got != 0 {
		t.Fatalf("handoffs on a one-shard cluster = %d, want 0", got)
	}
	if p.lastPos != join {
		t.Fatalf("a boundary scan ran on a one-shard cluster (last scanned position %v)", p.lastPos)
	}

	idx := c.AddShard(nil)
	if idx != 1 {
		t.Fatalf("AddShard = %d, want 1", idx)
	}
	if !c.migrateTile(c.table.TileOfBlock(sess.Pos()), idx, MoveRebalance) {
		t.Fatal("migration to the added shard refused")
	}
	loop.RunUntil(loop.Now() + 30*time.Second)
	if got := c.Handoffs.Value(); got != 1 || p.Shard() != idx {
		t.Fatalf("after AddShard + migrateTile: %d handoffs, player on shard %d; want 1 handoff onto shard %d", got, p.Shard(), idx)
	}
}

// checkSessions asserts the handle → session invariant: a hosted handle's
// Session is a player its host shard hosts, an in-flight handle has none,
// and the alive shards host exactly the hosted handles' sessions. It
// returns how many handles were in flight.
func checkSessions(t *testing.T, c *Cluster, when string) int {
	t.Helper()
	inflight, hosted := 0, 0
	for _, p := range c.Players() {
		s := c.Session(p)
		if p.inflight {
			if s != nil {
				t.Fatalf("%s: %s is in flight and still has a session", when, p.Name)
			}
			inflight++
			continue
		}
		if s == nil || !slices.Contains(c.Shard(p.Shard()).Players(), s) {
			t.Fatalf("%s: %s's session is not the player shard %d hosts", when, p.Name, p.Shard())
		}
		hosted++
	}
	n := 0
	for i := range c.shards {
		if c.table.Alive(i) {
			n += c.Shard(i).PlayerCount()
		}
	}
	if n != hosted {
		t.Fatalf("%s: the alive shards host %d sessions, the handles %d", when, n, hosted)
	}
	return inflight
}

// TestSessionFollowsThePlayer: a handle holds its shard-level session
// through a handoff over the storage substrate, a failover and its
// re-admission, a recovery that walks the victims home, and a
// disconnect. The invariant is checked every tick, and the run must pass
// through in-flight states for the check to mean anything.
func TestSessionFollowsThePlayer(t *testing.T) {
	loop, _, c := newStoreCluster(t, 17, 3, Config{})
	crosser := c.ConnectAt("crosser", walker(100, 8, 8), world.BlockPos{X: 32, Y: 0, Z: 8})
	var victims []*Player
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p := c.ConnectAt(fmt.Sprintf("s%dp%d", i, j), nil, c.Home(i))
			if i == 1 {
				victims = append(victims, p)
			}
		}
	}
	c.Start()
	inflight := 0
	runTo := func(until time.Duration, when string) {
		for loop.Now() < until {
			loop.RunUntil(min(loop.Now()+mve.TickInterval, until))
			inflight += checkSessions(t, c, when)
		}
	}
	runTo(30*time.Second, "handoff")
	if crosser.Shard() != 1 || c.Journal.Count(Handoff) == 0 {
		t.Fatalf("setup: crosser on shard %d after %d handoffs, want shard 1", crosser.Shard(), c.Journal.Count(Handoff))
	}
	if inflight == 0 {
		t.Fatal("the handoff was never seen in flight")
	}

	if !c.FailShard(1) {
		t.Fatal("FailShard refused")
	}
	for _, p := range append(victims, crosser) {
		if !p.inflight || c.Session(p) != nil {
			t.Fatalf("failover victim %s is not in flight", p.Name)
		}
	}
	runTo(60*time.Second, "failover")
	if got := c.Journal.Count(FailedOver); got != int64(len(victims)+1) {
		t.Fatalf("players failed over = %d, want %d", got, len(victims)+1)
	}

	if !c.RecoverShard(1) {
		t.Fatal("RecoverShard refused")
	}
	runTo(2*time.Minute, "recovery")
	for _, p := range victims {
		if p.Shard() != 1 || c.Session(p) == nil {
			t.Fatalf("victim %s not hosted at home after recovery (shard %d)", p.Name, p.Shard())
		}
	}

	gone := victims[0]
	if !c.Disconnect(gone.ID) {
		t.Fatal("Disconnect refused")
	}
	if c.Session(gone) != nil {
		t.Fatal("a disconnected handle still has a session")
	}
	runTo(2*time.Minute+time.Second, "disconnect")
}
