package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/sim"
	"servo/internal/world"
)

// pacer walks back and forth between two waypoints forever.
func pacer(x1, z1, x2, z2, speed float64) mve.Behavior {
	target := 0
	return behaviorFunc(func(_ *rand.Rand, p *mve.Player, _ *mve.Server) []mve.Action {
		if p.Moving() {
			return nil
		}
		target = 1 - target
		if target == 1 {
			return []mve.Action{mve.MoveTo(x2, z2, speed)}
		}
		return []mve.Action{mve.MoveTo(x1, z1, speed)}
	})
}

// sampleReplication runs the loop to until in replication-interval steps
// and writes, after each step, the bus's replay surface: the digest
// counters, the journal's ghost-record count, and every alive shard's ghost
// registry in creation order (id, name, exact position, pinned).
// The registries are the state the published digests stand for, so two
// runs that sample alike replicated alike.
func sampleReplication(b *strings.Builder, loop *sim.Loop, c *Cluster, until time.Duration) {
	for loop.Now() < until {
		loop.RunUntil(min(loop.Now()+DefaultVisibilityInterval, until))
		fmt.Fprintf(b, "t=%v sent=%d skipped=%d glog=%d\n",
			loop.Now(), c.digestsSent.Value(), c.digestsSkipped.Value(), c.Journal.Count(ghostKinds...))
		for i, s := range c.shards {
			if !c.table.Alive(i) {
				continue
			}
			fmt.Fprintf(b, "  shard %d:", i)
			s.EachGhost(func(g *mve.GhostAvatar) {
				fmt.Fprintf(b, " %d:%s(%v,%v) pinned=%t", g.ID, g.Name, g.X, g.Z, g.Pinned)
			})
			b.WriteByte('\n')
		}
	}
}

func TestVisibilityGhostAcrossBorder(t *testing.T) {
	loop, c := newTestCluster(t, 31, 2, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
	// Band 0 (x in [0,64)) → shard 0; band 1 → shard 1. The 16-block
	// margin keeps the band center out of reach of either border (bands
	// are unbounded, so band -1 sits just west of x=0 too).
	a := c.ConnectAt("alice", nil, world.BlockPos{X: 60, Y: 0, Z: 8})
	b := c.ConnectAt("bob", nil, world.BlockPos{X: 70, Y: 0, Z: 8})
	c.ConnectAt("carol", nil, world.BlockPos{X: 32, Y: 0, Z: 8}) // band center: no border within 16
	if a.Shard() != 0 || b.Shard() != 1 {
		t.Fatalf("setup: shards %d/%d, want 0/1", a.Shard(), b.Shard())
	}
	c.Start()
	loop.RunUntil(time.Second)

	// Each border resident is mirrored on the neighbouring shard...
	ga := ghostNamed(c.Shard(1), "alice")
	if ga == nil {
		t.Fatal("no ghost of alice on shard 1")
	}
	if ga.X != 60 {
		t.Fatalf("ghost of alice = %+v, want x=60", ga)
	}
	if ghostNamed(c.Shard(0), "bob") == nil {
		t.Fatal("no ghost of bob on shard 0")
	}
	// ...while the mid-band player replicates nowhere.
	if ghostNamed(c.Shard(0), "carol") != nil || ghostNamed(c.Shard(1), "carol") != nil {
		t.Fatal("mid-band player grew a ghost")
	}
	if got := c.GhostCount(); got != 2 {
		t.Fatalf("ghost count = %d, want 2", got)
	}
	if c.GhostUpdates.Value() == 0 {
		t.Fatal("no ghost updates counted")
	}
	// Alice and bob stand 10 blocks apart across the seam: every scan
	// must have served the pair.
	if got := c.VisibilityGaps.Value(); got != 0 {
		t.Fatalf("visibility gap ticks = %d, want 0", got)
	}

	// Alice leaves the border (to the band center, out of reach of band
	// -1's western seam too); her ghost must expire within the TTL.
	c.Session(a).X = 32
	loop.RunUntil(2 * time.Second)
	if ghostNamed(c.Shard(1), "alice") != nil {
		t.Fatal("ghost of alice survived her leaving the border")
	}
	expired := false
	for _, r := range ofKinds(c, GhostExpire) {
		if r.Shard == 1 && c.names[r.Player] == "alice" {
			expired = true
		}
	}
	if !expired {
		t.Fatalf("no expire record for alice in the journal:\n%s", journalText(c))
	}
}

func TestHandoffSeamlessGhostPromotion(t *testing.T) {
	loop := sim.NewLoop(32)
	remote := blob.NewStore(loop, blob.TierPremium)
	cfg := Config{
		Transfer:   &retryingTransfer{remote: remote},
		Shards:     2,
		Topology:   world.BandTopology{BandChunks: 4},
		Visibility: VisibilityConfig{Enabled: true},
	}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	p := c.ConnectAt("mover", walker(80, 8, 8), world.BlockPos{X: 40, Y: 0, Z: 8})
	c.Start()
	// Stretch the handoff flight so the demoted ghost is observable.
	remote.SetChaos(&blob.Chaos{LatencyFactor: 50})
	sawPinned := false
	var poll func()
	poll = func() {
		if !p.inflight {
			loop.After(10*time.Millisecond, poll)
			return
		}
		g := ghostNamed(c.Shard(0), "mover")
		if g == nil {
			t.Error("no ghost of the in-flight session on the source shard")
		} else if !g.Pinned {
			t.Error("in-flight ghost is not pinned")
		} else {
			sawPinned = true
		}
		// The destination shard was already mirroring the approaching
		// avatar; that ghost must ride out the whole (brownout-stretched)
		// flight pinned instead of TTL-expiring — the avatar would
		// otherwise pop out of the very world it is arriving in. Keep
		// polling until the flight ends to catch a late expiry.
		if dg := ghostNamed(c.Shard(1), "mover"); dg == nil {
			t.Error("destination shard's ghost expired mid-flight")
		} else if !dg.Pinned {
			t.Error("destination shard's ghost not pinned mid-flight")
		}
		loop.After(10*time.Millisecond, poll)
	}
	loop.After(10*time.Millisecond, poll)
	loop.RunUntil(90 * time.Second)

	if c.Handoffs.Value() == 0 {
		t.Fatal("no handoff happened")
	}
	if !sawPinned {
		t.Fatal("handoff never observed in flight; test proves nothing")
	}
	if p.Shard() != 1 {
		t.Fatalf("mover on shard %d, want 1", p.Shard())
	}
	// Promotion: the real avatar replaced any ghost on the destination.
	if ghostNamed(c.Shard(1), "mover") != nil {
		t.Fatal("ghost of mover still on its own shard after admission")
	}
	// The source's demoted double is unpinned again (free to expire once
	// the avatar leaves the border).
	if g := ghostNamed(c.Shard(0), "mover"); g != nil && g.Pinned {
		t.Fatal("source ghost still pinned after the handoff completed")
	}
	var demotes, promotes int
	for _, r := range ofKinds(c, GhostDemote, GhostPromote) {
		if c.names[r.Player] != "mover" {
			continue
		}
		switch r.Kind {
		case GhostDemote:
			demotes++
		case GhostPromote:
			if demotes == 0 {
				t.Fatal("promote before demote in the ghost log")
			}
			promotes++
		}
	}
	if demotes == 0 {
		t.Fatalf("no demote records in the journal:\n%s", journalText(c))
	}
}

// TestVisibilityDigestDeterministicReplay runs the same seeded pacing
// cluster twice: the ghost registries at every replication interval and
// the journal (ghost transitions and handoffs) must be identical — the
// replay surface of the interest-management layer.
func TestVisibilityDigestDeterministicReplay(t *testing.T) {
	run := func() (string, string, *Cluster) {
		loop := sim.NewLoop(33)
		remote := blob.NewStore(loop, blob.TierPremium)
		cfg := Config{
			Transfer:   &retryingTransfer{remote: remote},
			Shards:     2,
			Topology:   world.BandTopology{BandChunks: 4},
			Visibility: VisibilityConfig{Enabled: true},
		}
		c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
			return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
		})
		for i := 0; i < 6; i++ {
			speed := 4 + loop.RNG().Float64()*4
			c.ConnectAt(fmt.Sprintf("p%d", i), pacer(40, float64(i*8), 90, float64(i*8), speed),
				world.BlockPos{X: 40, Y: 0, Z: i * 8})
		}
		c.Start()
		var dump strings.Builder
		sampleReplication(&dump, loop, c, 2*time.Minute)
		return dump.String(), journalText(c), c
	}
	d1, j1, c := run()
	d2, j2, _ := run()
	if g, h := c.Journal.Count(ghostKinds...), c.Journal.Count(Handoff); g == 0 || h == 0 {
		t.Fatalf("empty replay surface (ghost records %d, handoffs %d); test proves nothing", g, h)
	}
	if d1 != d2 {
		t.Fatalf("ghost registries diverge:\n%s", firstDiff(d1, d2))
	}
	if j1 != j2 {
		t.Fatalf("journals diverge:\n%s", firstDiff(j1, j2))
	}
}

// firstDiff reports the first line two registry samples disagree on.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one sample ends at line %d, the other at %d", len(la), len(lb))
}

// TestVisibilityBrownoutDegradesWithoutLosingLiveness: a storage
// brownout stretches handoffs, so in-flight sessions survive only as
// stale pinned ghosts — which must persist for the whole flight (no
// pop-out) and resolve once the writes land. Replication itself is
// in-memory, so the brownout degrades freshness, never liveness.
func TestVisibilityBrownoutDegradesWithoutLosingLiveness(t *testing.T) {
	loop := sim.NewLoop(34)
	remote := blob.NewStore(loop, blob.TierPremium)
	cfg := Config{
		Transfer:   &retryingTransfer{remote: remote},
		Shards:     2,
		Topology:   world.BandTopology{BandChunks: 4},
		Visibility: VisibilityConfig{Enabled: true},
	}
	c := New(loop, cfg, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	p := c.ConnectAt("trooper", pacer(40, 8, 90, 8, 6), world.BlockPos{X: 40, Y: 0, Z: 8})
	c.ConnectAt("watcher", nil, world.BlockPos{X: 60, Y: 0, Z: 8})
	remote.SetChaos(&blob.Chaos{ReadErrorRate: 0.4, WriteErrorRate: 0.4, LatencyFactor: 20})
	c.Start()
	ghostGone := 0
	var watch func()
	watch = func() {
		if p.inflight && ghostNamed(c.Shard(0), "trooper") == nil && ghostNamed(c.Shard(1), "trooper") == nil {
			ghostGone++ // the avatar vanished from every world mid-flight
		}
		loop.After(50*time.Millisecond, watch)
	}
	loop.After(50*time.Millisecond, watch)
	loop.RunUntil(3 * time.Minute)

	if remote.FaultsInjected.Value() == 0 {
		t.Fatal("brownout injected no faults; test proves nothing")
	}
	if c.Handoffs.Value() == 0 {
		t.Fatal("no handoff completed through the brownout")
	}
	if ghostGone != 0 {
		t.Fatalf("avatar invisible everywhere for %d observations mid-handoff", ghostGone)
	}
	if c.PlayerCount() != 2 {
		t.Fatalf("players = %d after brownout, want 2", c.PlayerCount())
	}
	if c.Session(p) == nil && !p.inflight {
		t.Fatal("session lost")
	}
	// Degradation is visible: the brownout stretched handoffs well past
	// the replication interval, so the pinned ghost served stale state.
	if lat := c.HandoffLatency.Max(); lat < DefaultVisibilityInterval {
		t.Fatalf("handoff latency %v too small for staleness to matter", lat)
	}
}

// TestVisibilityServesDisplacedSessions covers the migration/handoff
// transient: after a tile flips owner, its residents are hosted by a
// shard that owns none of the terrain within their margin, so tile-based
// interest alone can never name their host — yet a neighbour hosted by
// the new owner must still see them (and vice versa), and the gap audit
// must cover the pair. The handoff scan is parked (1h interval) to hold
// the transient open.
func TestVisibilityServesDisplacedSessions(t *testing.T) {
	loop, c := newTestCluster(t, 35, 2, Config{
		Visibility: VisibilityConfig{Enabled: true, Margin: 16},
	})
	c.scanInterval = time.Hour
	// Band 2 (x in [128,192)) starts as shard 0's; both players stand at
	// its center, far from any band border under the 16-block margin.
	home := c.TileCenter(world.TileID{X: 2})
	a := c.ConnectAt("astray", nil, home)
	if a.Shard() != 0 {
		t.Fatalf("astray on shard %d, want 0", a.Shard())
	}
	c.Start()
	loop.RunUntil(time.Second)
	if !c.migrateTile(world.TileID{X: 2}, 1, MoveRebalance) {
		t.Fatal("migrateTile refused")
	}
	loop.RunUntil(1100 * time.Millisecond) // let the flip land
	// A second player joins on the migrated terrain: routed to the new
	// owner, standing right next to the displaced resident.
	b := c.ConnectAt("bystander", nil, home)
	if b.Shard() != 1 {
		t.Fatalf("bystander on shard %d, want 1", b.Shard())
	}
	loop.RunUntil(2 * time.Second)

	if a.Shard() != 0 {
		t.Fatal("handoff scan fired; the displaced transient did not hold")
	}
	if ghostNamed(c.Shard(1), "astray") == nil {
		t.Fatal("displaced session not mirrored onto the terrain owner's shard")
	}
	if ghostNamed(c.Shard(0), "bystander") == nil {
		t.Fatal("neighbour of a displaced session not mirrored onto its host shard")
	}
	if got := c.VisibilityGaps.Value(); got != 0 {
		t.Fatalf("visibility gap ticks = %d, want 0 (pair must be served)", got)
	}
}
