package cluster

import (
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/servo/rstore"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/world"
)

// The tests here follow a signature block through ownership changes on
// newStoreCluster's flat world (64-block bands, band 2 = x ∈ [128, 192),
// shard 0's by default): a sculptor's shard sets stone at mark, over the
// flat world's dirt, while a watcher on another shard stands close enough
// to hold a copy of mark's chunk. Whichever shard gains the band must serve
// and store the stone, not the dirt of the copy it held as a non-owner.

var (
	mark    = world.BlockPos{X: 130, Y: 3, Z: 1}
	watchAt = world.BlockPos{X: 120, Z: 8} // band 1: shard 1's
	sculpt  = world.BlockPos{X: 150, Z: 8} // band 2: shard 0's
	band2   = world.TileID{X: 2}
)

// heldBlock returns srv's copy of the block at p, and whether it holds the
// chunk.
func heldBlock(srv *mve.Server, p world.BlockPos) (world.Block, bool) {
	c := srv.World().Chunk(p.Chunk())
	if c == nil {
		return world.Block{}, false
	}
	o := p.Chunk().Origin()
	return c.At(p.X-o.X, p.Y, p.Z-o.Z), true
}

// storedBlock reads the block at p from the store.
func storedBlock(t *testing.T, loop *sim.Loop, remote *blob.Store, p world.BlockPos) world.Block {
	t.Helper()
	var got *world.Chunk
	remote.Get(tcache.Key(p.Chunk()), func(data []byte, err error) {
		if err != nil {
			t.Fatalf("chunk %v missing from the store: %v", p.Chunk(), err)
		}
		c, derr := world.DecodeChunk(data)
		if derr != nil {
			t.Fatal(derr)
		}
		got = c
	})
	loop.RunUntil(loop.Now() + time.Second)
	if got == nil {
		t.Fatal("store read never completed")
	}
	o := p.Chunk().Origin()
	return got.At(p.X-o.X, p.Y, p.Z-o.Z)
}

// flushed runs srv's flush of every chunk it owns to completion.
func flushed(t *testing.T, loop *sim.Loop, srv *mve.Server) {
	t.Helper()
	done := false
	srv.FlushOwnedChunks(nil, func() { done = true })
	loop.RunUntil(loop.Now() + 5*time.Second)
	if !done {
		t.Fatal("flush never landed")
	}
}

// watched builds newStoreCluster(t, 12, 2, Config{}) with the watcher and
// the sculptor connected and lets their terrain load.
func watched(t *testing.T) (*sim.Loop, *blob.Store, *Cluster) {
	t.Helper()
	loop, remote, c := newStoreCluster(t, 12, 2, Config{})
	c.ConnectAt("watcher", nil, watchAt)
	c.ConnectAt("sculptor", nil, sculpt)
	c.Start()
	loop.RunUntil(10 * time.Second)
	return loop, remote, c
}

// carve sets the stone at mark on shard on and checks that shard watcher
// holds a dirt copy of mark's chunk, or the test would prove nothing.
func carve(t *testing.T, c *Cluster, on, watcher int) {
	t.Helper()
	if !c.Shard(on).World().SetBlockAt(mark, world.Block{ID: world.Stone}) {
		t.Fatalf("mark's chunk not loaded on shard %d", on)
	}
	if b, ok := heldBlock(c.Shard(watcher), mark); !ok || b.ID != world.Dirt {
		t.Fatalf("shard %d holds %v (loaded %v) at mark, want a dirt copy", watcher, b, ok)
	}
}

// wantHeld fails t unless shard serves the stone at mark.
func wantHeld(t *testing.T, c *Cluster, shard int, when string) {
	t.Helper()
	if b, ok := heldBlock(c.Shard(shard), mark); !ok || b.ID != world.Stone {
		t.Fatalf("%s: shard %d serves %v (loaded %v) at mark, want stone", when, shard, b, ok)
	}
}

// wantReload fails t unless the journal holds exactly one reload record:
// shard re-reading some chunks of the tiles it gained at epoch.
func wantReload(t *testing.T, c *Cluster, shard int, epoch uint64) {
	t.Helper()
	if rs := ofKinds(c, Reload); len(rs) != 1 || rs[0].Shard != shard || rs[0].Epoch != epoch || rs[0].N <= 0 {
		t.Fatalf("want one reload record by shard %d at epoch %d, journal:\n%s", shard, epoch, journalText(c))
	}
}

// TestGainedTileReloadsFromStorage is the lost write of two migrations:
// band 2 moves from shard 0, where the stone was set, to shard 1, which
// held a dirt copy for its watcher, and back. Before gaining tiles
// reloaded, shard 1 served its dirt after the first flip and flushed it
// over the stone at the second.
func TestGainedTileReloadsFromStorage(t *testing.T) {
	loop, remote, c := watched(t)
	carve(t, c, 0, 1)

	if !c.migrateTile(band2, 1, MoveRebalance) {
		t.Fatal("migrateTile 2 → 1 refused")
	}
	loop.RunUntil(20 * time.Second)
	if c.table.Owner(band2) != 1 {
		t.Fatal("band 2 did not move to shard 1")
	}
	wantHeld(t, c, 1, "after the first flip")
	wantReload(t, c, 1, c.Epoch())

	if !c.migrateTile(band2, 0, MoveRebalance) {
		t.Fatal("migrateTile 2 → 0 refused")
	}
	loop.RunUntil(30 * time.Second)
	if c.table.Owner(band2) != 0 {
		t.Fatal("band 2 did not move back to shard 0")
	}
	wantHeld(t, c, 0, "after the second flip")
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark after two migrations, want stone", got)
	}
}

// TestDrainedTileReloadsFromStorage: the autoscaler's drain moves tiles
// through migrateTile too. Band 2 goes to a shard added at runtime, which
// sets the stone; draining that shard hands the band to a survivor that
// still holds a dirt copy (shard 0 kept its own, shard 1 its watcher's).
func TestDrainedTileReloadsFromStorage(t *testing.T) {
	loop, remote, c := watched(t)
	idx := c.AddShard(nil)
	if !c.migrateTile(band2, idx, MoveRebalance) {
		t.Fatal("migrateTile onto the new shard refused")
	}
	loop.RunUntil(40 * time.Second)
	carve(t, c, idx, 1)

	if !c.RemoveShard(idx) {
		t.Fatal("RemoveShard refused")
	}
	loop.RunUntil(3 * time.Minute)
	if c.table.Alive(idx) {
		t.Fatal("the drained shard never retired")
	}
	gainer := c.table.Owner(band2)
	wantHeld(t, c, gainer, "after the drain")
	flushed(t, loop, c.Shard(gainer))
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark after the drain, want stone", got)
	}
}

// TestFailedOverTileReloadsFromStorage: on failover the survivor gains
// the dead shard's bands, and storage is as current as the dead shard's
// last flush, which here carried the stone.
func TestFailedOverTileReloadsFromStorage(t *testing.T) {
	loop, remote, c := watched(t)
	carve(t, c, 0, 1)
	flushed(t, loop, c.Shard(0))

	if !c.FailShard(0) {
		t.Fatal("FailShard refused")
	}
	epoch := c.Epoch()
	loop.RunUntil(loop.Now() + 10*time.Second)
	wantHeld(t, c, 1, "after the failover")
	wantReload(t, c, 1, epoch)
	flushed(t, loop, c.Shard(1))
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark after the failover, want stone", got)
	}
}

// TestRecoveredShardHoldsNoStaleCopy pins that RecoverShard needs no
// reload: the interim owner's edit reaches storage in the flush that
// recovery waits for, and the fresh server reads its world from there.
func TestRecoveredShardHoldsNoStaleCopy(t *testing.T) {
	loop, _, c := watched(t)
	carve(t, c, 0, 1)
	flushed(t, loop, c.Shard(0))
	if !c.FailShard(0) {
		t.Fatal("FailShard refused")
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	edit := world.BlockPos{X: mark.X + 1, Y: mark.Y, Z: mark.Z}
	if !c.Shard(1).World().SetBlockAt(edit, world.Block{ID: world.Gravel}) {
		t.Fatal("the interim owner holds no copy of mark's chunk")
	}

	if !c.RecoverShard(0) {
		t.Fatal("RecoverShard refused")
	}
	loop.RunUntil(loop.Now() + time.Minute)
	if c.table.Owner(band2) != 0 {
		t.Fatal("band 2 did not revert to the recovered shard")
	}
	wantHeld(t, c, 0, "after recovery")
	if b, ok := heldBlock(c.Shard(0), edit); !ok || b.ID != world.Gravel {
		t.Fatalf("the recovered shard serves %v (loaded %v) where the interim owner set gravel", b, ok)
	}
}

// newCachedCluster is newStoreCluster with each shard's chunks behind its
// own terrain cache (rstore over tcache, flushing every 30 s), as core
// builds a serverless-storage cluster: a cache keeps records of chunks its
// world no longer holds.
func newCachedCluster(t *testing.T, seed int64, shards int) (*sim.Loop, *blob.Store, *Cluster) {
	t.Helper()
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	c := New(loop, Config{Shards: shards, Topology: world.BandTopology{BandChunks: 4}, Transfer: &retryingTransfer{remote: remote}},
		func(i int, region world.Region) *mve.Server {
			cache := tcache.New(loop, remote, tcache.DefaultConfig())
			cache.StartFlusher()
			return mve.NewServer(loop, mve.Config{
				WorldType:    "flat",
				ViewDistance: 32,
				Region:       region,
				Store:        rstore.New(cache),
			})
		})
	return loop, remote, c
}

// TestGainedTileForgetsCachedCopies: the copy shard 1's watcher read is
// unloaded before the flip, so shard 1's world holds nothing of band 2, but
// its terrain cache still holds the record it read (the chunk as it was
// before the stone, or its absence). Gaining band 2 must forget that record
// too: when the watcher comes back, shard 1 must serve and store the stone.
func TestGainedTileForgetsCachedCopies(t *testing.T) {
	loop, remote, c := newCachedCluster(t, 12, 2)
	watcher := c.ConnectAt("watcher", nil, watchAt)
	c.ConnectAt("sculptor", nil, sculpt)
	c.ConnectAt("anchor", nil, world.BlockPos{X: 250, Z: 8}) // band 3, shard 1's: keeps its unload scan running
	c.Start()
	loop.RunUntil(10 * time.Second)
	carve(t, c, 0, 1)

	c.Disconnect(watcher.ID)
	loop.RunUntil(loop.Now() + 10*time.Second)
	if _, ok := heldBlock(c.Shard(1), mark); ok {
		t.Fatal("shard 1 still holds mark's chunk with its watcher gone")
	}
	if !c.migrateTile(band2, 1, MoveRebalance) {
		t.Fatal("migrateTile 2 → 1 refused")
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	if c.table.Owner(band2) != 1 {
		t.Fatal("band 2 did not move to shard 1")
	}

	c.ConnectAt("watcher", nil, watchAt)
	loop.RunUntil(loop.Now() + 10*time.Second)
	wantHeld(t, c, 1, "after the watcher came back")
	flushed(t, loop, c.Shard(1))
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark, want stone", got)
	}
}

// TestReroutedTileReloadsFromStorage: while shards are dead, their tiles
// are spread over the alive shards by the alive set's order, so every
// change of that set — a shard added, one retired, one recovered — moves
// them between survivors, and each gainer must drop the copy it held as a
// non-owner. Shards 1 and 3 of 4 die, which leaves band 3 (x ∈ [192, 256))
// to shard 2; then AddShard moves it to shard 0, retiring the added shard
// moves it back to shard 2, and recovering shard 1 moves it to shard 0
// again. Shard 0's watcher at x = 258 holds a copy of chunk 14
// (x ∈ [224, 240)) and shard 2's at x = 180 one of chunk 12
// (x ∈ [192, 208)); before each move the band's owner edits the chunk the
// gainer holds.
func TestReroutedTileReloadsFromStorage(t *testing.T) {
	loop, _, c := newStoreCluster(t, 12, 4, Config{})
	band3 := world.TileID{X: 3}
	c.ConnectAt("watcher0", nil, world.BlockPos{X: 258, Z: 8})
	c.ConnectAt("watcher2", nil, world.BlockPos{X: 180, Z: 8})
	c.ConnectAt("sculptor", nil, world.BlockPos{X: 220, Z: 8})
	c.Start()
	loop.RunUntil(10 * time.Second)
	for _, dead := range []int{3, 1} {
		if !c.FailShard(dead) {
			t.Fatalf("FailShard(%d) refused", dead)
		}
		loop.RunUntil(loop.Now() + 10*time.Second)
	}

	// edit sets b at p on band 3's owner, after checking that gainer holds
	// a copy of p's chunk without it.
	edit := func(p world.BlockPos, b world.BlockID, gainer int) {
		t.Helper()
		owner := c.table.Owner(band3)
		if !c.Shard(owner).World().SetBlockAt(p, world.Block{ID: b}) {
			t.Fatalf("band 3's owner, shard %d, holds no copy of %v", owner, p.Chunk())
		}
		if got, ok := heldBlock(c.Shard(gainer), p); !ok || got.ID == b {
			t.Fatalf("shard %d holds %v (loaded %v) at %v, want a copy without the edit", gainer, got, ok, p)
		}
	}
	// gained checks that band 3 moved to gainer and that gainer serves b
	// at p.
	gained := func(p world.BlockPos, b world.BlockID, gainer int, when string) {
		t.Helper()
		loop.RunUntil(loop.Now() + 10*time.Second)
		if o := c.table.Owner(band3); o != gainer {
			t.Fatalf("%s: band 3 is shard %d's, want shard %d's", when, o, gainer)
		}
		if got, ok := heldBlock(c.Shard(gainer), p); !ok || got.ID != b {
			t.Fatalf("%s: shard %d serves %v (loaded %v) at %v, want %v", when, gainer, got, ok, p, b)
		}
	}

	in14 := world.BlockPos{X: 232, Y: 3, Z: 1}
	edit(in14, world.Stone, 0)
	added := c.AddShard(nil)
	gained(in14, world.Stone, 0, "after AddShard")

	in12 := world.BlockPos{X: 196, Y: 3, Z: 1}
	edit(in12, world.Stone, 2)
	if !c.RemoveShard(added) {
		t.Fatal("RemoveShard refused")
	}
	loop.RunUntil(loop.Now() + time.Minute)
	if c.table.Alive(added) {
		t.Fatal("the added shard never retired")
	}
	gained(in12, world.Stone, 2, "after retirement")

	next := world.BlockPos{X: in14.X + 1, Y: in14.Y, Z: in14.Z}
	edit(next, world.Gravel, 0)
	if !c.RecoverShard(1) {
		t.Fatal("RecoverShard refused")
	}
	gained(next, world.Gravel, 0, "after recovery")
}

// TestLostTileFlushesUnloadedChunks: the sculptor leaves and shard 0
// unloads mark's chunk, so the stone's last write waits in shard 0's
// terrain cache for the next periodic write-back. Migrating band 2 to
// shard 1 must flush that record before the flip: shard 1 reloads the
// band from storage and must serve, and storage hold, the stone before
// any write-back is due.
func TestLostTileFlushesUnloadedChunks(t *testing.T) {
	loop, remote, c := newCachedCluster(t, 12, 2)
	c.ConnectAt("watcher", nil, watchAt)
	sculptor := c.ConnectAt("sculptor", nil, sculpt)
	c.ConnectAt("anchor", nil, world.BlockPos{X: 8, Z: 8}) // band 0, shard 0's: keeps its unload scan running
	c.Start()
	loop.RunUntil(10 * time.Second)
	carve(t, c, 0, 1)

	c.Disconnect(sculptor.ID)
	loop.RunUntil(loop.Now() + 10*time.Second)
	if _, ok := heldBlock(c.Shard(0), mark); ok {
		t.Fatal("shard 0 still holds mark's chunk with its sculptor gone")
	}
	if !c.migrateTile(band2, 1, MoveRebalance) {
		t.Fatal("migrateTile 2 → 1 refused")
	}
	loop.RunUntil(loop.Now() + 3*time.Second)
	if c.table.Owner(band2) != 1 {
		t.Fatal("band 2 did not move to shard 1")
	}
	if loop.Now() >= tcache.DefaultConfig().FlushInterval {
		t.Fatalf("the check runs at %v, after the first periodic write-back", loop.Now())
	}
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark after the flip, want stone", got)
	}
	wantHeld(t, c, 1, "after the flip")
}

// blobTableStore persists the ownership table in the blob store under
// tableKey, as core's does.
type blobTableStore struct{ remote *blob.Store }

const tableKey = "cluster/ownership"

func (b *blobTableStore) SaveTable(data []byte) { b.remote.PutRetrying(tableKey, data) }

func (b *blobTableStore) LoadTable(cb func([]byte, bool)) {
	b.remote.GetRetrying(tableKey, func(data []byte, err error) { cb(data, err == nil) })
}

// TestAdoptedTableReloadsFromStorage: a cluster restarting over a world
// whose persisted table gives band 2 to shard 1 adopts it once the read
// lands, and adopting moves the band like a migration. The read is held
// back while shard 0, band 2's default owner, sets the stone and shard 1
// holds a dirt copy for its watcher: shard 0 must flush the band before
// the flip, and shard 1 reload it.
func TestAdoptedTableReloadsFromStorage(t *testing.T) {
	persisted := world.NewOwnershipTable(2, world.BandTopology{BandChunks: 4})
	persisted.SetOwner(band2, 1)
	loop, remote, c := newStoreCluster(t, 12, 2, Config{})
	c.tableStore = &blobTableStore{remote: remote}
	remote.Put(tableKey, persisted.Encode(), nil)
	loop.Run()

	c.ConnectAt("watcher", nil, watchAt)
	c.ConnectAt("sculptor", nil, sculpt)
	remote.SetChaos(&blob.Chaos{LatencyFactor: 5000}) // holds the table read
	c.Start()
	remote.SetChaos(nil)
	loop.RunUntil(10 * time.Second)
	if c.Epoch() != 0 {
		t.Fatalf("the table was adopted at %v, before the edit", loop.Now())
	}
	carve(t, c, 0, 1)

	loop.RunUntil(2 * time.Minute)
	if c.Epoch() != persisted.Epoch() || c.table.Owner(band2) != 1 {
		t.Fatalf("epoch %d, band 2 is shard %d's: the persisted table was not adopted", c.Epoch(), c.table.Owner(band2))
	}
	wantHeld(t, c, 1, "after adoption")
	if got := storedBlock(t, loop, remote, mark); got.ID != world.Stone {
		t.Fatalf("the store holds %v at mark after adoption, want stone", got)
	}
}
