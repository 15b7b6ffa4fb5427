// Ghost identity is the player name: the registries hold at most one
// ghost per name on a shard, whichever session it came from. These tests
// pin that rule through the cluster's public surface (EachGhost and the
// ghost log) so that the registry's storage can change under it.

package cluster

import (
	"fmt"
	"strings"
	"testing"

	"servo/internal/mve"
	"servo/internal/world"
)

// ghostNamed returns shard s's ghost mirroring name, or nil, by walking
// the registry.
func ghostNamed(s *mve.Server, name string) *mve.GhostAvatar {
	var found *mve.GhostAvatar
	s.EachGhost(func(g *mve.GhostAvatar) {
		if g.Name == name {
			found = g
		}
	})
	return found
}

// dumpGhosts writes every alive shard's registry in creation order (id,
// name, position, home, pinned) and then the whole ghost log.
func dumpGhosts(b *strings.Builder, c *Cluster) {
	for i, s := range c.shards {
		if !c.table.Alive(i) {
			continue
		}
		fmt.Fprintf(b, "shard %d:", i)
		s.EachGhost(func(g *mve.GhostAvatar) {
			fmt.Fprintf(b, " %d:%s(%v,%v)>%d", g.ID, g.Name, g.X, g.Z, g.Home)
			if g.Pinned {
				b.WriteString("*")
			}
		})
		b.WriteByte('\n')
	}
	b.WriteString("log:")
	for _, r := range ofKinds(c, ghostKinds...) {
		fmt.Fprintf(b, " %s@%d:%s", c.names[r.Player], r.Shard, r.Kind)
	}
	b.WriteByte('\n')
}

// TestGhostIdentityIsTheName drives the three places where two sessions
// can meet under one name, on four shards around the corner of a 2×2
// grid (every position below is within the margin of all four tiles):
//   - two live sessions named "twin" on two shards share one ghost on each
//     other shard, refreshed by whichever publishes last;
//   - "echo" disconnects and rejoins on another shard before its ghost
//     there expires: the rejoin removes that ghost and logs a promote;
//   - "faller"'s shard fails, and readmission on the tile's new owner
//     removes the ghost there and logs a promote — as does readmitting
//     the failed shard's twin, whose name is the other twin's ghost.
//
// The registries (ghost ids included) and the ghost log are compared
// with a fixed transcript after each step.
func TestGhostIdentityIsTheName(t *testing.T) {
	_, c := newTestCluster(t, 61, 4, Config{
		Topology:   world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 2},
		Visibility: VisibilityConfig{Enabled: true, Margin: 16},
	})
	nw, ne := world.BlockPos{X: 30, Z: 30}, world.BlockPos{X: 34, Z: 30}
	sw, se := world.BlockPos{X: 30, Z: 34}, world.BlockPos{X: 34, Z: 34}
	shards := map[int]bool{}
	for _, pos := range []world.BlockPos{nw, ne, sw, se} {
		shards[c.table.ShardOfBlock(pos)] = true
	}
	if len(shards) != 4 {
		t.Fatalf("setup: the four corner positions lie on %d shards, want 4", len(shards))
	}
	var got strings.Builder
	step := func(name string) {
		fmt.Fprintf(&got, "== %s\n", name)
		dumpGhosts(&got, c)
	}

	a := c.ConnectAt("twin", nil, nw)
	b := c.ConnectAt("twin", nil, ne)
	if a.Shard() == b.Shard() {
		t.Fatal("setup: the twins share a shard")
	}
	c.VisibilityScanOnce()
	step("twins")
	third := c.table.ShardOfBlock(sw)
	n := 0
	c.Shard(third).EachGhost(func(g *mve.GhostAvatar) {
		if g.Name == "twin" {
			n++
		}
	})
	if n != 1 {
		t.Fatalf("shard %d holds %d ghosts named twin, want 1", third, n)
	}

	echo := c.ConnectAt("echo", nil, se)
	c.VisibilityScanOnce()
	rejoin := c.table.ShardOfBlock(sw)
	if ghostNamed(c.Shard(rejoin), "echo") == nil {
		t.Fatal("setup: echo is not mirrored where it will rejoin")
	}
	c.Disconnect(echo.ID)
	c.ConnectAt("echo", nil, sw)
	if ghostNamed(c.Shard(rejoin), "echo") != nil {
		t.Fatal("the rejoin left echo's stale ghost on its new shard")
	}
	step("rejoin")

	faller := c.ConnectAt("faller", nil, ne)
	c.VisibilityScanOnce()
	if !c.FailShard(faller.Shard()) {
		t.Fatal("FailShard refused")
	}
	if ghostNamed(c.Shard(faller.Shard()), "faller") != nil {
		t.Fatal("readmission left faller's ghost on its new shard")
	}
	c.VisibilityScanOnce()
	step("failover")

	const want = `== twins
shard 0: 1:twin(34,30)>1
shard 1: 1:twin(30,30)>0
shard 2: 1:twin(34,30)>1
shard 3: 1:twin(34,30)>1
log: twin@1:spawn twin@2:spawn twin@3:spawn twin@0:spawn
== rejoin
shard 0: 1:twin(34,30)>1 2:echo(34,34)>2
shard 1: 1:twin(30,30)>0 2:echo(34,34)>2
shard 2: 1:twin(34,30)>1
shard 3: 1:twin(34,30)>1
log: twin@1:spawn twin@2:spawn twin@3:spawn twin@0:spawn echo@0:spawn echo@1:spawn echo@3:spawn echo@3:promote
== failover
shard 0: 1:twin(34,30)>2 2:echo(30,34)>3 3:faller(34,30)>2
shard 2: 3:echo(30,34)>3 4:twin(30,30)>0
shard 3: 1:twin(34,30)>2 3:faller(34,30)>2
log: twin@1:spawn twin@2:spawn twin@3:spawn twin@0:spawn echo@0:spawn echo@1:spawn echo@3:spawn echo@3:promote faller@0:spawn faller@2:spawn faller@3:spawn echo@2:spawn twin@2:promote faller@2:promote twin@2:spawn
`
	if got.String() != want {
		t.Fatalf("ghost registries and log:\n%s\nwant:\n%s\nfirst difference:\n%s", got.String(), want, firstDiff(got.String(), want))
	}
}
