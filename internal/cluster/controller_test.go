package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/servo/rstore"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/world"
)

// blobChunkStore is the test double of core's uncached blob-backed chunk
// store, including the completion-reporting writes (SyncingChunkStore)
// that ownership migrations gate on.
type blobChunkStore struct{ remote *blob.Store }

var (
	_ mve.ChunkStore        = (*blobChunkStore)(nil)
	_ mve.SyncingChunkStore = (*blobChunkStore)(nil)
)

func (u *blobChunkStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	u.remote.GetRetrying(tcache.Key(pos), func(data []byte, err error) {
		if err != nil {
			cb(nil, false)
			return
		}
		c, derr := world.DecodeChunk(data)
		if derr != nil {
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

func (u *blobChunkStore) Store(c *world.Chunk) {
	u.remote.PutRetrying(tcache.Key(c.Pos), c.Encode())
}

func (u *blobChunkStore) StoreThen(c *world.Chunk, done func()) {
	u.remote.PutDurablyThen(tcache.Key(c.Pos), c.Encode(), done)
}

// newStoreCluster builds a store-backed cluster (chunk persistence +
// handoff transfer over one blob store), 64-block band tiles unless
// cfg.Topology picks another tiling.
func newStoreCluster(t *testing.T, seed int64, shards int, cfg Config) (*sim.Loop, *blob.Store, *Cluster) {
	t.Helper()
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	cfg.Shards = shards
	if cfg.Topology == nil {
		cfg.Topology = world.BandTopology{BandChunks: 4}
	}
	if cfg.Transfer == nil {
		cfg.Transfer = &retryingTransfer{remote: remote}
	}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{
			WorldType:    "flat",
			ViewDistance: 32,
			Region:       region,
			Store:        &blobChunkStore{remote: remote},
		})
	})
	return loop, remote, c
}

func TestMigrateBandMovesOwnershipAndPlayers(t *testing.T) {
	loop, c := newTestCluster(t, 11, 2, Config{})
	// Band 2 (x in [128,192)) is shard 0's by the default interleave.
	home := c.TileCenter(world.TileID{X: 2})
	var ps []*Player
	for i := 0; i < 3; i++ {
		ps = append(ps, c.ConnectAt(fmt.Sprintf("m%d", i), nil, home))
	}
	for _, p := range ps {
		if p.Shard() != 0 {
			t.Fatalf("player started on shard %d, want 0", p.Shard())
		}
	}
	c.Start()
	loop.RunUntil(5 * time.Second)
	if !c.migrateTile(world.TileID{X: 2}, 1, MoveRebalance) {
		t.Fatal("migrateTile refused")
	}
	loop.RunUntil(30 * time.Second)

	if got := c.Epoch(); got != 1 {
		t.Fatalf("epoch = %d after one migration, want 1", got)
	}
	if got := c.table.Owner(world.TileID{X: 2}); got != 1 {
		t.Fatalf("tile 2 owner = %d, want 1", got)
	}
	for _, p := range ps {
		if p.Shard() != 1 {
			t.Fatalf("player %s still on shard %d after migration", p.Name, p.Shard())
		}
	}
	if log := ofKinds(c, moveKinds...); len(log) != 1 || log[0].Tile != (world.TileID{X: 2}) || log[0].Peer != 1 {
		t.Fatalf("move records wrong:\n%s", journalText(c))
	}
}

// TestMigrationBrownoutDelaysButNeverLoses is the migration safety
// property: a player-modified chunk in the migrating band reaches the
// store before the ownership flip, even under a heavy brownout — the
// flip waits for the flush, so the brownout delays the migration but the
// new owner reads the modified state, never a regenerated one.
func TestMigrationBrownoutDelaysButNeverLoses(t *testing.T) {
	loop, remote, c := newStoreCluster(t, 12, 2, Config{})
	home := c.TileCenter(world.TileID{X: 2})
	p := c.ConnectAt("sculptor", nil, home)
	c.Start()
	loop.RunUntil(10 * time.Second) // band 2 terrain loads around the player

	// The player carves a signature block into its chunk.
	mark := world.BlockPos{X: home.X + 1, Y: 3, Z: home.Z + 1}
	if !c.Shard(0).World().SetBlockAt(mark, world.Block{ID: world.Stone}) {
		t.Fatal("mark chunk not loaded on the owning shard")
	}

	// Brownout: most writes fail, everything is 20x slower.
	remote.SetChaos(&blob.Chaos{WriteErrorRate: 0.6, ReadErrorRate: 0.6, LatencyFactor: 20})
	if !c.migrateTile(world.TileID{X: 2}, 1, MoveRebalance) {
		t.Fatal("migrateTile refused")
	}
	// Mid-brownout the flush is still fighting faults: the ownership flip
	// must not have happened yet (delayed, not skipped).
	loop.RunUntil(10*time.Second + 50*time.Millisecond)
	if c.Epoch() != 0 {
		t.Fatal("ownership flipped before the flush landed")
	}
	loop.RunUntil(2 * time.Minute)
	remote.SetChaos(nil)
	loop.RunUntil(3 * time.Minute)

	if c.Epoch() == 0 {
		t.Fatal("migration never completed after the brownout")
	}
	if got := c.table.Owner(world.TileID{X: 2}); got != 1 {
		t.Fatalf("tile 2 owner = %d, want 1", got)
	}
	if p.Shard() != 1 {
		t.Fatalf("resident player on shard %d, want 1", p.Shard())
	}
	if remote.FaultsInjected.Value() == 0 {
		t.Fatal("brownout injected no faults; test proves nothing")
	}
	// The store holds the marked chunk: the new owner reads the modified
	// state, not regenerated terrain.
	var stored *world.Chunk
	remote.Get(tcache.Key(mark.Chunk()), func(data []byte, err error) {
		if err != nil {
			t.Fatalf("marked chunk missing from store: %v", err)
		}
		ch, derr := world.DecodeChunk(data)
		if derr != nil {
			t.Fatal(derr)
		}
		stored = ch
	})
	loop.RunUntil(4 * time.Minute)
	if stored == nil {
		t.Fatal("store read never completed")
	}
	lx, ly, lz := mark.X-mark.Chunk().Origin().X, mark.Y, mark.Z-mark.Chunk().Origin().Z
	if stored.At(lx, ly, lz).ID != world.Stone {
		t.Fatal("player modification lost in migration: flushed chunk lacks the mark")
	}
}

func TestFailoverReadmitsEveryPlayer(t *testing.T) {
	loop, remote, c := newStoreCluster(t, 13, 3, Config{})
	// Players on every shard; shard 1's will be the victims.
	var victims []*Player
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			p := c.ConnectAt(fmt.Sprintf("s%dp%d", i, j), nil, c.Home(i))
			if i == 1 {
				victims = append(victims, p)
			}
		}
	}
	c.Start()
	loop.RunUntil(10 * time.Second)

	if !c.FailShard(1) {
		t.Fatal("FailShard refused")
	}
	if c.table.Alive(1) {
		t.Fatal("shard 1 still alive after the kill")
	}
	loop.RunUntil(30 * time.Second)

	if got := c.PlayerCount(); got != 12 {
		t.Fatalf("players after failover = %d, want 12 (zero lost)", got)
	}
	if got := c.Journal.Count(FailedOver); got != 4 {
		t.Fatalf("players failed over = %d, want 4", got)
	}
	for _, p := range victims {
		if p.Shard() == 1 {
			t.Fatalf("victim %s still routed to the dead shard", p.Name)
		}
		if c.Session(p) == nil {
			t.Fatalf("victim %s has no session after failover", p.Name)
		}
	}
	// The dead shard owns nothing; survivors own its bands.
	if c.table.ShardOfBlock(c.Home(1)) == 1 {
		t.Fatal("dead shard still owns its home band")
	}

	// Recovery rebuilds the shard and reverts its bands; the victims walk
	// home through the ordinary scan.
	if !c.RecoverShard(1) {
		t.Fatal("RecoverShard refused")
	}
	loop.RunUntil(2 * time.Minute)
	if !c.table.Alive(1) {
		t.Fatal("shard 1 not alive after recovery")
	}
	// The rebuilt server inherited the crashed one's tick history, so
	// whole-run series (windowed assertions, CSV reports) still cover the
	// pre-crash era.
	if got := len(c.Shard(1).TickSeries.ValuesBetween(0, 10*time.Second)); got == 0 {
		t.Fatal("pre-crash tick history lost in the rebuild")
	}
	for _, p := range victims {
		if p.Shard() != 1 {
			t.Fatalf("victim %s did not return home after recovery (on shard %d)", p.Name, p.Shard())
		}
	}
	if got := c.PlayerCount(); got != 12 {
		t.Fatalf("players after recovery = %d, want 12", got)
	}
	_ = remote
}

func TestFailShardRefusesLastAlive(t *testing.T) {
	loop, c := newTestCluster(t, 14, 2, Config{})
	c.Start()
	loop.RunUntil(time.Second)
	if !c.FailShard(0) {
		t.Fatal("first kill refused")
	}
	if c.FailShard(1) {
		t.Fatal("killing the last alive shard must be refused")
	}
}

func TestRebalanceControllerMovesHotBand(t *testing.T) {
	loop, c := newTestCluster(t, 15, 2, Config{
		Rebalance: RebalanceConfig{Enabled: true, Threshold: 1.1, Interval: 2 * time.Second},
	})
	// Shard 0 hosts two populated bands (0 and 2); shard 1 hosts band 1
	// lightly. The controller should shed band 2 — not band 0, whose
	// larger population would just move the hotspot.
	for i := 0; i < 12; i++ {
		c.ConnectAt(fmt.Sprintf("hot%d", i), nil, c.TileCenter(world.TileID{X: 0}))
	}
	for i := 0; i < 8; i++ {
		c.ConnectAt(fmt.Sprintf("warm%d", i), nil, c.TileCenter(world.TileID{X: 2}))
	}
	for i := 0; i < 2; i++ {
		c.ConnectAt(fmt.Sprintf("cold%d", i), nil, c.TileCenter(world.TileID{X: 1}))
	}
	c.Start()
	loop.RunUntil(90 * time.Second)

	if got := c.Journal.Count(moveKinds...); got < 1 {
		t.Fatalf("controller moved %d tiles, want >= 1", got)
	}
	if got := c.table.Owner(world.TileID{X: 2}); got != 1 {
		t.Fatalf("tile 2 owner = %d, want 1 (shed to the cold shard)", got)
	}
	if got := c.table.Owner(world.TileID{X: 0}); got != 0 {
		t.Fatalf("tile 0 owner = %d: the controller moved the hotspot instead of shedding", got)
	}
	s0, s1 := c.Shard(0).PlayerCount(), c.Shard(1).PlayerCount()
	if s0 != 12 || s1 != 10 {
		t.Fatalf("post-rebalance split %d/%d, want 12/10", s0, s1)
	}
}

// TestRebalanceDeterministicReplay runs the same seeded rebalancing
// cluster twice and requires identical journals.
func TestRebalanceDeterministicReplay(t *testing.T) {
	run := func() (string, int64) {
		loop, c := newTestCluster(t, 42, 2, Config{
			Rebalance: RebalanceConfig{Enabled: true, Threshold: 1.1, Interval: 2 * time.Second},
		})
		for i := 0; i < 10; i++ {
			c.ConnectAt(fmt.Sprintf("a%d", i), nil, c.TileCenter(world.TileID{X: 0}))
		}
		for i := 0; i < 6; i++ {
			c.ConnectAt(fmt.Sprintf("b%d", i), nil, c.TileCenter(world.TileID{X: 2}))
		}
		c.ConnectAt("c0", nil, c.TileCenter(world.TileID{X: 1}))
		c.Start()
		loop.RunUntil(90 * time.Second)
		return journalText(c), c.Journal.Count(moveKinds...)
	}
	a, moves := run()
	b, _ := run()
	if moves == 0 {
		t.Fatal("no migrations recorded; test proves nothing")
	}
	if a != b {
		t.Fatalf("journals differ:\n%s", firstDiff(a, b))
	}
}

// TestGridRebalanceSplitsZAxisCrowd is the tentpole property of the tile
// rekey: under a 2-D grid topology, a crowd spread along the Z axis
// spans several tiles (and shards) — where the 1-D band topology would
// have fused the whole column into one band on one shard — and the
// controller sheds tiles from the hot row-shards to the cold ones.
func TestGridRebalanceSplitsZAxisCrowd(t *testing.T) {
	topo := world.GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4}
	loop, c := newTestCluster(t, 21, 4, Config{
		Topology:  topo,
		Rebalance: RebalanceConfig{Enabled: true, Threshold: 1.1, Interval: 2 * time.Second},
	})
	// Balanced baseline: 5 players in each shard's home tile.
	for s := 0; s < 4; s++ {
		for j := 0; j < 5; j++ {
			c.ConnectAt(fmt.Sprintf("base%d-%d", s, j), nil, c.Home(s))
		}
	}
	// A Z-axis crowd along column x=0: tiles (0,0) and (0,1).
	tileA, tileB := world.TileID{X: 0, Z: 0}, world.TileID{X: 0, Z: 1}
	if c.table.Owner(tileA) == c.table.Owner(tileB) {
		t.Fatalf("Z-separated tiles %v and %v share a shard; the grid is not splitting Z", tileA, tileB)
	}
	for j := 0; j < 15; j++ {
		c.ConnectAt(fmt.Sprintf("crowdA%d", j), nil, c.TileCenter(tileA))
		c.ConnectAt(fmt.Sprintf("crowdB%d", j), nil, c.TileCenter(tileB))
	}
	c.Start()
	loop.RunUntil(2 * time.Minute)

	if got := c.Journal.Count(moveKinds...); got < 2 {
		t.Fatalf("controller moved %d tiles, want >= 2 (one per hot row)", got)
	}
	// The crowd tiles themselves must not have moved (shedding them would
	// just relocate the hotspot); the light home tiles did.
	if got := c.table.Owner(tileA); got != 0 {
		t.Errorf("crowd tile %v moved to shard %d: hotspot relocated instead of shed", tileA, got)
	}
	max := 0
	for i := 0; i < 4; i++ {
		if n := c.Shard(i).PlayerCount(); n > max {
			max = n
		}
	}
	if max >= 20 {
		t.Fatalf("hottest shard still hosts %d of 50 players; no load left the hot rows", max)
	}
}

// chatOnce emits a single chat action on the first tick.
func chatOnce() mve.Behavior {
	sent := false
	return behaviorFunc(func(_ *rand.Rand, _ *mve.Player, _ *mve.Server) []mve.Action {
		if sent {
			return nil
		}
		sent = true
		return []mve.Action{{Kind: mve.ActionChat}}
	})
}

// TestCrossShardChat is the regression for single-shard chat fan-out:
// recipients on other shards must receive the message.
func TestCrossShardChat(t *testing.T) {
	loop, c := newTestCluster(t, 16, 2, Config{})
	c.ConnectAt("speaker", chatOnce(), c.Home(0))
	c.ConnectAt("listener", nil, c.Home(1))
	c.Start()
	loop.RunUntil(5 * time.Second)

	total := c.Shard(0).ChatsDelivered.Value() + c.Shard(1).ChatsDelivered.Value()
	if total != 2 {
		t.Fatalf("chat deliveries = %d, want 2 (both shards' players)", total)
	}
	if got := c.Shard(1).ChatsDelivered.Value(); got != 1 {
		t.Fatalf("foreign shard deliveries = %d, want 1", got)
	}
}

// TestPickTilePrefersContiguousMigration is the island-tile regression:
// when two of the hot shard's tiles tie on the post-move maximum, the
// controller must pick the one grafting onto the cold shard's territory
// (most Topology.Neighbors owned by cold), not the lower-index tile in
// the middle of the hot territory — which would strand an island of
// foreign ownership inside it.
func TestPickTilePrefersContiguousMigration(t *testing.T) {
	topo := world.GridTopology{TilesX: 3, TilesZ: 3, TileChunks: 4}
	loop, c := newTestCluster(t, 21, 2, Config{Topology: topo})
	// Serpentine default split: shard 0 owns indices 0-4 — tiles (0,0),
	// (1,0), (2,0), (2,1), (1,1) — shard 1 owns the rest. Candidates
	// (1,0) [index 1] and (2,1) [index 3] get equal hotspots; (1,0) has
	// one cold neighbour (its torus north, (1,2)), (2,1) has two ((0,1)
	// east across the wrap and (2,2) south).
	for i := 0; i < 3; i++ {
		c.ConnectAt(fmt.Sprintf("a%d", i), nil, c.TileCenter(world.TileID{X: 1, Z: 0}))
		c.ConnectAt(fmt.Sprintf("b%d", i), nil, c.TileCenter(world.TileID{X: 2, Z: 1}))
	}
	for i := 0; i < 2; i++ {
		c.ConnectAt(fmt.Sprintf("c%d", i), nil, c.TileCenter(world.TileID{X: 0, Z: 2}))
	}
	tile, ok := c.pickTile(0, 1)
	if !ok {
		t.Fatal("pickTile found no candidate")
	}
	if tile != (world.TileID{X: 2, Z: 1}) {
		t.Fatalf("pickTile chose %v; want the contiguity-preserving tile(2,1)", tile)
	}
	// Sanity: both candidates really do tie on the post-move maximum.
	if adjA, adjB := c.coldAdjacency(world.TileID{X: 1, Z: 0}, 1), c.coldAdjacency(world.TileID{X: 2, Z: 1}, 1); adjA >= adjB {
		t.Fatalf("test geometry broken: adjacency %d >= %d", adjA, adjB)
	}
	_ = loop
}

// TestCheckpointRestoresInventoryOnFailover: a player that never crossed
// a boundary (so the handoff path never persisted it) must survive a
// shard failure with inventory intact, courtesy of the periodic
// checkpoint loop — not merely at its scan-tracked position.
func TestCheckpointRestoresInventoryOnFailover(t *testing.T) {
	loop, remote, c := newStoreCluster(t, 22, 2, Config{Checkpoint: 2 * time.Second})
	p := c.ConnectAt("homebody", nil, c.Home(1))
	c.Session(p).Inventory = 7
	c.Start()
	loop.RunUntil(10 * time.Second)

	if !stored(loop, remote, rstore.PlayerKey("homebody")) {
		t.Fatal("no checkpoint persisted the player record; test proves nothing")
	}
	if !c.FailShard(1) {
		t.Fatal("FailShard refused")
	}
	loop.RunUntil(30 * time.Second)

	sess := c.Session(p)
	if sess == nil {
		t.Fatal("player lost in failover")
	}
	if sess.Inventory != 7 {
		t.Fatalf("inventory after failover = %d, want 7 (checkpoint ignored)", sess.Inventory)
	}
	home := c.Home(1)
	if dx := sess.X - float64(home.X); dx < -1 || dx > 1 {
		t.Fatalf("position after failover x=%g, want ≈%d", sess.X, home.X)
	}
}

// TestCheckpointDisabledLosesInventory pins the contract the checkpoint
// loop exists to fix: without it, a never-persisted player fails over at
// its scan-tracked position with an empty record.
func TestCheckpointDisabledLosesInventory(t *testing.T) {
	loop, _, c := newStoreCluster(t, 23, 2, Config{})
	p := c.ConnectAt("homebody", nil, c.Home(1))
	c.Session(p).Inventory = 7
	c.Start()
	loop.RunUntil(10 * time.Second)
	if !c.FailShard(1) {
		t.Fatal("FailShard refused")
	}
	loop.RunUntil(30 * time.Second)
	sess := c.Session(p)
	if sess == nil {
		t.Fatal("player lost in failover")
	}
	if sess.Inventory == 7 {
		t.Fatal("inventory survived without checkpointing; the regression test above is vacuous")
	}
}
