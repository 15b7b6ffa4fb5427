// Tests for the incremental visibility scan and the digest encoding: the
// failed-shard-0 view-distance regression, the dirty-set determinism
// contract (incremental == full rescan, ghost registry for ghost
// registry), the rate limiter, and the encode-boundary validation.

package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"servo/internal/mve"
	"servo/internal/sim"
	"servo/internal/world"
)

// TestVisMarginSurvivesShard0Failure: the margin (and the gap audit's
// view distance) must come from an alive shard. The regression: shard 0
// is built with a different view distance and then killed before any
// scan — the old code read the crashed server's config unconditionally.
func TestVisMarginSurvivesShard0Failure(t *testing.T) {
	loop := sim.NewLoop(41)
	cfg := Config{
		Shards:     3,
		Topology:   world.BandTopology{BandChunks: 4},
		Visibility: VisibilityConfig{Enabled: true}, // Margin 0 → view distance
	}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		vd := 32
		if i == 0 {
			vd = 8 // the misleading config a crashed shard 0 leaves behind
		}
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: vd, Region: region})
	})
	c.ConnectAt("edge", nil, world.BlockPos{X: 130, Y: 0, Z: 8}) // shard 2's band, near a border
	c.Start()
	if !c.FailShard(0) {
		t.Fatal("FailShard refused")
	}
	if got := c.visMargin(); got != 32 {
		t.Fatalf("visMargin after FailShard(0) = %d, want 32 (read from an alive shard)", got)
	}
	// The scan itself must run against the survivors without consulting
	// the corpse.
	loop.RunUntil(time.Second)
	if got := c.viewDistance(); got != 32 {
		t.Fatalf("viewDistance after FailShard(0) = %d, want 32", got)
	}
}

// TestViewDistanceMismatchAsserted: alive shards disagreeing on view
// distance is a configuration bug the margin logic cannot paper over —
// the resolver must say so instead of silently picking one.
func TestViewDistanceMismatchAsserted(t *testing.T) {
	loop := sim.NewLoop(42)
	cfg := Config{Shards: 2, Topology: world.BandTopology{BandChunks: 4}}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 16 + 16*i, Region: region})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mismatched alive view distances did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "ViewDistance") {
			t.Fatalf("panic %v does not name the mismatch", r)
		}
	}()
	c.viewDistance()
}

// TestIncrementalScanMatchesFullRescan is the determinism contract of
// the dirty-set scan, exercised through the displaced-session pairing
// loop: two displaced sessions on different shards within margin of each
// other (each hosted by a shard that owns none of their terrain) plus
// pacing border traffic. The ghost registries at every replication
// interval and the ghost log must be identical across replays and across
// incremental vs. full scans.
func TestIncrementalScanMatchesFullRescan(t *testing.T) {
	run := func(full bool) (string, string) {
		loop := sim.NewLoop(43)
		cfg := Config{
			Shards:     2,
			Topology:   world.BandTopology{BandChunks: 4},
			Visibility: VisibilityConfig{Enabled: true, Margin: 16},
		}
		c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
			return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
		})
		c.scanInterval = time.Hour // park handoffs: hold the displaced transient open
		c.fullRescan = full
		// Tile 2 is shard 0's, tile 3 shard 1's; the two sessions stand
		// 10 blocks apart across that seam, and each tile then migrates to
		// the other shard — leaving both sessions displaced, on different
		// shards, within margin of each other.
		a := c.ConnectAt("astray", pacer(150, 8, 187, 8, 5), world.BlockPos{X: 187, Y: 0, Z: 8})
		b := c.ConnectAt("bstray", pacer(197, 8, 240, 8, 5), world.BlockPos{X: 197, Y: 0, Z: 8})
		// Background border traffic keeps the dirty set busy.
		c.ConnectAt("walker", pacer(40, 24, 90, 24, 7), world.BlockPos{X: 40, Y: 0, Z: 24})
		c.ConnectAt("idler", nil, world.BlockPos{X: 60, Y: 0, Z: 40})
		if a.Shard() != 0 || b.Shard() != 1 {
			t.Fatalf("setup: shards %d/%d, want 0/1", a.Shard(), b.Shard())
		}
		c.Start()
		var dump strings.Builder
		sampleReplication(&dump, loop, c, time.Second)
		if !c.migrateTile(world.TileID{X: 2}, 1, MoveRebalance) || !c.migrateTile(world.TileID{X: 3}, 0, MoveRebalance) {
			t.Fatal("migrateTile refused")
		}
		sampleReplication(&dump, loop, c, time.Minute)
		if a.Shard() != 0 || b.Shard() != 1 {
			t.Fatal("handoff scan fired; the displaced transient did not hold")
		}
		if ghostNamed(c.Shard(1), "astray") == nil || ghostNamed(c.Shard(0), "bstray") == nil {
			t.Fatal("displaced pair not mutually mirrored")
		}
		if got := c.VisibilityGaps.Value(); got != 0 {
			t.Fatalf("visibility gap ticks = %d, want 0", got)
		}
		if c.Journal.Count(ghostKinds...) == 0 {
			t.Fatal("no ghost records; test proves nothing")
		}
		return dump.String(), journalText(c)
	}
	incA, jA := run(false)
	incB, jB := run(false)
	fullD, jF := run(true)
	if incA != incB {
		t.Fatalf("incremental ghost registries not replay-stable:\n%s", firstDiff(incA, incB))
	}
	if incA != fullD {
		t.Fatalf("incremental and full-rescan ghost registries diverge:\n%s", firstDiff(incA, fullD))
	}
	for name, j := range map[string]string{"replay": jB, "full rescan": jF} {
		if j != jA {
			t.Fatalf("%s journal diverges:\n%s", name, firstDiff(jA, j))
		}
	}
}

// TestIncrementalScanAcrossShardChanges: the membership cache and the
// dense per-shard-pair digest table across a growing shard set and a
// reused slot. Border traffic runs on three band shards; a fourth shard
// joins and takes over a tile that has residents on both sides of its
// seam (the pair table grows from 3×3 to 4×4 pairs mid-run), then shard 1
// fails and is recovered into the same slot, keeping its pairs' state. The
// ghost registries at every replication interval and the ghost log must
// match the full rescan's, and both the new shard and the reused slot
// must have mirrored avatars.
func TestIncrementalScanAcrossShardChanges(t *testing.T) {
	run := func(full bool) (string, string) {
		loop := sim.NewLoop(49)
		cfg := Config{
			Shards:     3,
			Topology:   world.BandTopology{BandChunks: 4},
			Visibility: VisibilityConfig{Enabled: true, Margin: 16},
		}
		c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
			return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
		})
		c.fullRescan = full
		c.ConnectAt("a", pacer(50, 8, 80, 8, 4), world.BlockPos{X: 50, Y: 0, Z: 8})
		c.ConnectAt("b", pacer(115, 24, 140, 24, 4), world.BlockPos{X: 115, Y: 0, Z: 24})
		c.ConnectAt("c", nil, world.BlockPos{X: 60, Y: 0, Z: 40})
		c.ConnectAt("d", nil, world.BlockPos{X: 70, Y: 0, Z: 40})
		c.ConnectAt("e", nil, world.BlockPos{X: 186, Y: 0, Z: 8})
		c.ConnectAt("f", pacer(196, 8, 220, 8, 3), world.BlockPos{X: 196, Y: 0, Z: 8})
		c.Start()
		var dump strings.Builder
		sampleReplication(&dump, loop, c, 2*time.Second)
		added := c.AddShard()
		if added != 3 {
			t.Fatalf("AddShard = %d, want 3", added)
		}
		if !c.migrateTile(world.TileID{X: 3}, added, MoveRebalance) {
			t.Fatal("migrateTile refused")
		}
		sampleReplication(&dump, loop, c, 5*time.Second)
		if !c.FailShard(1) {
			t.Fatal("FailShard refused")
		}
		sampleReplication(&dump, loop, c, 7*time.Second)
		recoveredAt := loop.Now()
		if !c.RecoverShard(1) {
			t.Fatal("RecoverShard refused")
		}
		sampleReplication(&dump, loop, c, 12*time.Second)
		mirrored := func(shard int, from time.Duration) bool {
			for _, r := range ofKinds(c, GhostSpawn) {
				if r.Shard == shard && r.At >= from {
					return true
				}
			}
			return false
		}
		if !mirrored(added, 0) {
			t.Fatal("the added shard never mirrored an avatar")
		}
		if !mirrored(1, recoveredAt) {
			t.Fatal("the recovered slot never mirrored an avatar")
		}
		fmt.Fprintf(&dump, "gap ticks %d\n", c.VisibilityGaps.Value())
		return dump.String(), journalText(c)
	}
	inc, jI := run(false)
	fullD, jF := run(true)
	if inc != fullD {
		t.Fatalf("incremental and full-rescan ghost registries diverge:\n%s", firstDiff(inc, fullD))
	}
	if jI != jF {
		t.Fatalf("incremental and full-rescan journals diverge:\n%s", firstDiff(jI, jF))
	}
}

// TestVisRecomputesStopIdle: once every session is stationary and the
// ownership epoch is quiet, the dirty set is empty — membership
// recomputation stops while replication (ghost refreshes) carries on.
func TestVisRecomputesStopIdle(t *testing.T) {
	loop, c := newTestCluster(t, 44, 2, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
	c.ConnectAt("alice", nil, world.BlockPos{X: 60, Y: 0, Z: 8})
	c.ConnectAt("bob", nil, world.BlockPos{X: 70, Y: 0, Z: 8})
	c.Start()
	loop.RunUntil(time.Second)
	settled := c.VisRecomputes.Value()
	if settled == 0 {
		t.Fatal("no membership recomputation at all; test proves nothing")
	}
	updates := c.GhostUpdates.Value()
	loop.RunUntil(3 * time.Second)
	if got := c.VisRecomputes.Value(); got != settled {
		t.Fatalf("idle sessions still recompute membership: %d → %d", settled, got)
	}
	if c.GhostUpdates.Value() == updates {
		t.Fatal("replication stopped along with the recomputation")
	}
}

// TestVisRecomputesFollowChunks: membership reads tiles, and tiles are
// whole chunks, so a session pacing inside one chunk (its margin square
// staying on the same chunks) is as quiet as an idle one, and a session
// walking in a straight line recomputes once per chunk boundary, not
// once per block.
func TestVisRecomputesFollowChunks(t *testing.T) {
	loop, c := newTestCluster(t, 46, 2, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
	// x 36..42 keeps the avatar on chunk 2 and x±16 on chunks 1 and 3.
	pc := c.ConnectAt("pacer", pacer(36, 8, 42, 8, 5), world.BlockPos{X: 36, Y: 0, Z: 8})
	c.Start()
	loop.RunUntil(time.Second)
	settled := c.VisRecomputes.Value()
	if settled == 0 {
		t.Fatal("no membership recomputation at all; test proves nothing")
	}
	loop.RunUntil(1500 * time.Millisecond)
	if !c.Session(pc).Moving() {
		t.Fatal("pacer is not moving; test proves nothing")
	}
	loop.RunUntil(10 * time.Second)
	if got := c.VisRecomputes.Value(); got != settled {
		t.Fatalf("pacing inside one chunk still recomputes membership: %d → %d", settled, got)
	}

	// 160 blocks along Z inside band 0: ten chunk boundaries, each one
	// also moving both edges of the 16-block margin square.
	wk := c.ConnectAt("walker", walker(40, 168, 8), world.BlockPos{X: 40, Y: 0, Z: 8})
	before := c.VisRecomputes.Value()
	loop.RunUntil(40 * time.Second)
	if got := c.Session(wk).Pos(); got.Z != 168 {
		t.Fatalf("walker stopped at %v", got)
	}
	if got := c.VisRecomputes.Value() - before; got != 11 {
		t.Fatalf("160-block walk recomputed membership %d times, want 11 (the join and ten chunk boundaries)", got)
	}
}

// TestIncrementalScanOddMargin: with a margin that is not a whole number
// of chunks the margin square's chunk rect can stay put while the
// session steps over a tile boundary (x 60 → 70 under margin 24 keeps
// chunks 2..5 but moves from band 0 to band 1). The chunk underfoot is
// part of the cache key for exactly this: without it the crosser's
// displaced flag goes stale, and "east" (24 blocks from the crosser but
// 26 from shard 0's band, so reachable only through the displaced
// pairing) is never mirrored to the crosser's shard.
func TestIncrementalScanOddMargin(t *testing.T) {
	run := func(full bool) (string, string) {
		loop := sim.NewLoop(47)
		cfg := Config{
			Shards:     2,
			Topology:   world.BandTopology{BandChunks: 4},
			Visibility: VisibilityConfig{Enabled: true, Margin: 24},
		}
		c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
			return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
		})
		c.scanInterval = time.Hour // park handoffs: the crosser stays on shard 0 and turns displaced
		c.fullRescan = full
		c.ConnectAt("crosser", pacer(60, 8, 70, 8, 2), world.BlockPos{X: 60, Y: 0, Z: 8})
		c.ConnectAt("west", nil, world.BlockPos{X: 50, Y: 0, Z: 8})
		c.ConnectAt("east", nil, world.BlockPos{X: 90, Y: 0, Z: 8})
		c.Start()
		var dump strings.Builder
		sampleReplication(&dump, loop, c, 30*time.Second)
		mirrored := false
		for _, g := range ofKinds(c, ghostKinds...) {
			mirrored = mirrored || (c.names[g.Player] == "east" && g.Shard == 0)
		}
		if !mirrored {
			t.Fatal("east was never mirrored to the displaced crosser's shard")
		}
		if got := c.VisibilityGaps.Value(); got != 0 {
			t.Fatalf("visibility gap ticks = %d, want 0", got)
		}
		return dump.String(), journalText(c)
	}
	inc, jI := run(false)
	fullD, jF := run(true)
	if inc != fullD {
		t.Fatalf("incremental and full-rescan ghost registries diverge:\n%s", firstDiff(inc, fullD))
	}
	if jI != jF {
		t.Fatalf("incremental and full-rescan journals diverge:\n%s", firstDiff(jI, jF))
	}
}

// TestEncodeGhostDigestValidation: entries the wire form cannot carry are
// errors at the encode boundary, not silent truncation.
func TestEncodeGhostDigestValidation(t *testing.T) {
	ok := []DigestEntry{{Name: "fine", X: 1, Z: 2, Home: 3}}
	if _, err := EncodeGhostDigest(ok); err != nil {
		t.Fatalf("valid entries rejected: %v", err)
	}
	long := []DigestEntry{{Name: strings.Repeat("n", 1<<16), Home: 0}}
	if _, err := EncodeGhostDigest(long); err == nil {
		t.Fatal("64 KiB name encoded without error (would truncate via uint16)")
	}
	neg := []DigestEntry{{Name: "x", Home: -1}}
	if _, err := EncodeGhostDigest(neg); err == nil {
		t.Fatal("negative home shard encoded without error (would wrap via uint32)")
	}
	big := []DigestEntry{{Name: "x", Home: 1 << 40}}
	if _, err := EncodeGhostDigest(big); err == nil {
		t.Fatal("out-of-range home shard encoded without error")
	}
}

// TestDigestEncodeAllocs pins the digest encoder's allocation contract
// on a 512-entry pair: it allocates exactly its output buffer (sized from
// the names, so it never regrows).
func TestDigestEncodeAllocs(t *testing.T) {
	entries := make([]DigestEntry, 512)
	for i := range entries {
		entries[i] = DigestEntry{Name: fmt.Sprintf("player-%04d", i), X: float64(i) * 3, Z: float64(i%7) * 5, Home: i % 2}
	}
	full := testing.AllocsPerRun(20, func() {
		if _, err := EncodeGhostDigest(entries); err != nil {
			t.Fatal(err)
		}
	})
	if full != 1 {
		t.Fatalf("full digest: %v allocs per call, want 1 (the output buffer)", full)
	}
}

// TestVisibilityScanZeroAlloc: a steady-state replication tick —
// membership caches, ghost registries and scan scratch warmed by one
// scan, or by a few in each position where residents move — allocates
// nothing, on three shapes. "spaced": 1000 idle border
// residents paired across a band seam and spaced along Z, so each pair
// audits locally. "crowded": 300 residents within view of each other
// around the corner of four tiles on a 2×2 grid, the shape the cluster
// workload runs, where every resident is near every shard. "crossing":
// the crowded shape with every resident stepping one block diagonally
// back and forth between measured scans, so those on a cell edge change
// cell (and tile) every scan and both indexes repair their order.
func TestVisibilityScanZeroAlloc(t *testing.T) {
	grid := world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 2}
	for _, tc := range []struct {
		name   string
		shards int
		topo   world.Topology
		n      int
		pos    func(i int) world.BlockPos
		step   bool
	}{
		{"spaced", 2, nil, 1000, func(i int) world.BlockPos {
			x := 60 // 4 blocks west of the x=64 band seam, shard 0
			if i%2 == 1 {
				x = 70 // 6 blocks east, shard 1
			}
			return world.BlockPos{X: x, Z: (i / 2) * 48}
		}, false},
		{"crowded", 4, grid, 300, func(i int) world.BlockPos {
			// Inside [16, 47]² around the corner at (32, 32): every pair
			// within the view distance of 32, every resident within the
			// 16-block margin of two seams.
			return world.BlockPos{X: 16 + i%32, Z: 16 + i/32*3}
		}, false},
		{"crossing", 4, grid, 300, func(i int) world.BlockPos {
			// Inside [17, 46]², so a step of one block keeps every
			// resident within the margin of both seams; those at x or
			// z = 31 cross the corner's cell and tile edges.
			return world.BlockPos{X: 17 + i%29, Z: 17 + i/29*2}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestCluster(t, 7, tc.shards, Config{Topology: tc.topo, Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
			hosts := map[int]int{}
			crossers := 0
			for i := 0; i < tc.n; i++ {
				pos := tc.pos(i)
				hosts[c.ConnectAt(fmt.Sprintf("r%d", i), nil, pos).Shard()]++
				if pos.X == 31 || pos.Z == 31 {
					crossers++
				}
			}
			if len(hosts) != tc.shards {
				t.Fatalf("residents on %d shards, want all %d", len(hosts), tc.shards)
			}
			if tc.step && crossers == 0 {
				t.Fatal("no resident on a cell edge; the repair moves nothing")
			}
			c.VisibilityScanOnce()
			if want := tc.n * (tc.shards - 1); c.GhostCount() != want {
				t.Fatalf("warm-up scan mirrored %d ghosts, want %d", c.GhostCount(), want)
			}
			step := 1.0
			scan := func() {
				if tc.step {
					for _, p := range c.order {
						sp := c.Session(p)
						sp.X, sp.Z = sp.X+step, sp.Z+step
					}
					step = -step
				}
				c.VisibilityScanOnce()
			}
			if tc.step {
				// Both step phases warm their own scratch: the first
				// stepped scans grow the displaced pairing's shard sets.
				for range 4 {
					scan()
				}
			}
			if got := testing.AllocsPerRun(20, scan); got != 0 {
				t.Fatalf("steady-state visibility scan: %v allocs per scan, want 0", got)
			}
			if got := c.VisibilityGaps.Value(); got != 0 {
				t.Fatalf("visibility gap ticks = %d, want 0", got)
			}
		})
	}
}

// TestDigestRateLimiterSkipsIdlePairs: a shard pair whose entry list is
// unchanged under a quiet ownership epoch skips publication, but a
// forced refresh lands at least every digestMaxSkips+1 scans — so the
// staleness stamps keep refreshing, no ghost expires, and the gap audit
// stays clean throughout.
func TestDigestRateLimiterSkipsIdlePairs(t *testing.T) {
	loop, c := newTestCluster(t, 45, 2, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
	c.ConnectAt("alice", nil, world.BlockPos{X: 60, Y: 0, Z: 8})
	c.ConnectAt("bob", nil, world.BlockPos{X: 70, Y: 0, Z: 8})
	c.Start()
	loop.RunUntil(time.Second)
	sent, skipped := c.DigestsSent.Value(), c.DigestsSkipped.Value()
	ghosts := c.GhostCount()
	if ghosts == 0 {
		t.Fatal("no ghosts materialised; test proves nothing")
	}
	loop.RunUntil(4 * time.Second)
	dSent := c.DigestsSent.Value() - sent
	dSkip := c.DigestsSkipped.Value() - skipped
	if dSkip == 0 {
		t.Fatal("stationary pair never skipped publication")
	}
	if dSent == 0 {
		t.Fatal("rate limiter never force-refreshed an idle pair")
	}
	if dSkip > int64(digestMaxSkips)*dSent {
		t.Fatalf("skip cap violated: %d skips for %d sends (max %d per send)", dSkip, dSent, digestMaxSkips)
	}
	if got := c.GhostCount(); got != ghosts {
		t.Fatalf("rate limiting changed the ghost population: %d → %d", ghosts, got)
	}
	if c.VisibilityGaps.Value() != 0 {
		t.Fatalf("rate limiting opened %d visibility gap ticks", c.VisibilityGaps.Value())
	}
}

// BenchmarkVisibilityScanFullRescan measures one replication tick of the
// full-rescan reference at 1k and 4k idle border residents paired across
// a band seam — the layout of the root package's BenchmarkVisibilityScan,
// whose incremental numbers it is the baseline for.
func BenchmarkVisibilityScanFullRescan(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			loop := sim.NewLoop(7)
			c := New(loop, Config{
				Shards:     2,
				Topology:   world.BandTopology{BandChunks: 4},
				Visibility: VisibilityConfig{Enabled: true, Margin: 16},
			}, func(i int, region world.Region) *mve.Server {
				return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
			})
			c.fullRescan = true
			for i := 0; i < n; i++ {
				x := 60 // 4 blocks west of the x=64 band seam, shard 0
				if i%2 == 1 {
					x = 70 // 6 blocks east, shard 1
				}
				c.ConnectAt(fmt.Sprintf("r%d", i), nil, world.BlockPos{X: x, Y: 0, Z: (i / 2) * 48})
			}
			c.VisibilityScanOnce() // warm the ghost registries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.VisibilityScanOnce()
			}
		})
	}
}
