package world

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestOwnershipDefaultsMatchTopology(t *testing.T) {
	for _, topo := range []Topology{
		BandTopology{BandChunks: 4},
		GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4},
	} {
		tab := NewOwnershipTable(3, topo)
		for x := -40; x <= 40; x += 3 {
			for z := -40; z <= 40; z += 5 {
				cp := ChunkPos{X: x, Z: z}
				if got, want := tab.ShardOf(cp), DefaultOwner(topo, 3, topo.TileOf(cp)); got != want {
					t.Fatalf("%v: fresh table disagrees with topology at %v: %d vs %d", topo, cp, got, want)
				}
			}
		}
		if tab.Epoch() != 0 {
			t.Fatalf("fresh table epoch = %d, want 0", tab.Epoch())
		}
	}
}

func TestOwnershipSetOwnerBumpsEpoch(t *testing.T) {
	tab := NewOwnershipTable(2, BandTopology{BandChunks: 4})
	tile := TileID{X: 2}
	if !tab.SetOwner(tile, 1) {
		t.Fatal("SetOwner(tile 2, 1) refused")
	}
	if tab.Epoch() != 1 {
		t.Fatalf("epoch = %d after one migration, want 1", tab.Epoch())
	}
	if got := tab.Owner(tile); got != 1 {
		t.Fatalf("tile 2 owner = %d, want 1", got)
	}
	// No-op: already owned by 1.
	if tab.SetOwner(tile, 1) {
		t.Fatal("re-assigning to the current owner must be a no-op")
	}
	if tab.Epoch() != 1 {
		t.Fatalf("no-op bumped the epoch to %d", tab.Epoch())
	}
	// Back to the default assignment drops the override.
	if !tab.SetOwner(tile, 0) {
		t.Fatal("migrating back refused")
	}
	if len(tab.Overrides()) != 0 {
		t.Fatalf("override not dropped on return to default: %v", tab.Overrides())
	}
	if tab.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", tab.Epoch())
	}
}

// TestOwnershipDeadShardReroutesDeterministically pins the failover
// reassignment across topologies: every tile of a dead shard resolves to
// some survivor, identically on every evaluation (no hidden state), and
// revival reverts the reroute exactly.
func TestOwnershipDeadShardReroutesDeterministically(t *testing.T) {
	topos := []Topology{
		BandTopology{BandChunks: 4},
		GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4},
		GridTopology{TilesX: 3, TilesZ: 5, TileChunks: 2},
	}
	for _, topo := range topos {
		tab := NewOwnershipTable(3, topo)
		if !tab.SetDead(1, true) {
			t.Fatalf("%v: SetDead refused", topo)
		}
		// A second table with the same kill must agree on every tile: the
		// reroute is a pure function of (topology, liveness), so every
		// shard resolves ownership identically without coordination.
		tab2 := NewOwnershipTable(3, topo)
		tab2.SetDead(1, true)
		probe := func(tile TileID) {
			o := tab.Owner(tile)
			if o == 1 {
				t.Fatalf("%v: tile %v still routed to the dead shard", topo, tile)
			}
			if o != tab.Owner(tile) || o != tab2.Owner(tile) {
				t.Fatalf("%v: tile %v reroute is unstable", topo, tile)
			}
		}
		if n := topo.Tiles(); n > 0 {
			for i := 0; i < n; i++ {
				probe(topo.TileAt(i))
			}
		} else {
			for b := -20; b <= 20; b++ {
				probe(TileID{X: b})
			}
		}
		// Revival reverts the reroute exactly.
		if !tab.SetDead(1, false) {
			t.Fatalf("%v: revive refused", topo)
		}
		for x := -40; x <= 40; x += 3 {
			cp := ChunkPos{X: x, Z: -x}
			if got, want := tab.ShardOf(cp), DefaultOwner(topo, 3, topo.TileOf(cp)); got != want {
				t.Fatalf("%v: post-revival ownership differs at %v: %d vs %d", topo, cp, got, want)
			}
		}
	}
}

// TestOwnershipCanonicalisesTileAliases is the phantom-override
// regression: a caller-supplied out-of-range grid tile (or an off-axis
// band tile) must resolve to the same override slot the routing lookups
// key on, never to a shadow entry that bumps the epoch without changing
// any chunk's owner.
func TestOwnershipCanonicalisesTileAliases(t *testing.T) {
	tab := NewOwnershipTable(4, GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4})
	alias := TileID{X: 5, Z: -4} // canonical form: (1, 0)
	if got := tab.Canon(alias); got != (TileID{X: 1, Z: 0}) {
		t.Fatalf("Canon(%v) = %v, want tile(1,0)", alias, got)
	}
	if !tab.SetOwner(alias, 3) {
		t.Fatal("SetOwner via alias refused")
	}
	// The migration is visible through the canonical key and through the
	// chunk lookup, not parked under a phantom entry.
	if got := tab.Owner(TileID{X: 1, Z: 0}); got != 3 {
		t.Fatalf("canonical tile owner = %d, want 3", got)
	}
	if got := tab.ShardOf(ChunkPos{X: 5, Z: 1}); got != 3 { // chunk in tile (1,0)
		t.Fatalf("chunk in the migrated tile routed to %d, want 3", got)
	}
	if ov := tab.Overrides(); len(ov) != 1 || ov[0].Tile != (TileID{X: 1, Z: 0}) {
		t.Fatalf("override stored under a non-canonical key: %v", ov)
	}
	// Re-assigning through another alias of the same tile is a no-op.
	if tab.SetOwner(TileID{X: -3, Z: 4}, 3) {
		t.Fatal("aliased re-assignment must be a no-op")
	}
	// Bands collapse the Z coordinate.
	band := NewOwnershipTable(2, BandTopology{BandChunks: 4})
	band.SetOwner(TileID{X: 2, Z: 7}, 1)
	if got := band.Owner(TileID{X: 2}); got != 1 {
		t.Fatalf("band tile owner = %d, want 1", got)
	}
}

func TestOwnershipRefusesKillingLastShard(t *testing.T) {
	tab := NewOwnershipTable(2, nil)
	if !tab.SetDead(0, true) {
		t.Fatal("first kill refused")
	}
	if tab.SetDead(1, true) {
		t.Fatal("killing the last alive shard must be refused")
	}
	if tab.SetOwner(TileID{X: 3}, 0) {
		t.Fatal("migrating a tile to a dead shard must be refused")
	}
}

// TestOwnershipEncodeDecodeRoundTripProperty drives random topologies,
// migrations, and kills through the codec: a fresh table of the same
// geometry that adopts the encoding must reproduce the source's epoch,
// overrides, and per-tile owners exactly, and liveness must never survive
// the encoding.
func TestOwnershipEncodeDecodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		var topo Topology
		if rng.Intn(2) == 0 {
			topo = BandTopology{BandChunks: 1 + rng.Intn(12)}
		} else {
			topo = GridTopology{
				TilesX:     1 + rng.Intn(6),
				TilesZ:     1 + rng.Intn(6),
				TileChunks: 1 + rng.Intn(8),
			}
		}
		shards := 2 + rng.Intn(5)
		tab := NewOwnershipTable(shards, topo)
		randomTile := func() TileID {
			if n := topo.Tiles(); n > 0 {
				return topo.TileAt(rng.Intn(n))
			}
			return TileID{X: rng.Intn(41) - 20}
		}
		for i := rng.Intn(10); i > 0; i-- {
			tab.SetOwner(randomTile(), rng.Intn(shards))
		}
		if rng.Intn(3) == 0 {
			tab.SetDead(rng.Intn(shards), true) // must not be encoded
		}

		dec := NewOwnershipTable(shards, topo)
		if adopted := dec.Adopt(tab.Encode()); adopted != (tab.Epoch() > 0) {
			t.Fatalf("trial %d (%v): Adopt of an epoch-%d table into a fresh one = %v",
				trial, topo, tab.Epoch(), adopted)
		}
		if dec.Epoch() != tab.Epoch() {
			t.Fatalf("trial %d: epoch changed: %d vs %d", trial, dec.Epoch(), tab.Epoch())
		}
		if !slices.Equal(dec.Overrides(), tab.Overrides()) {
			t.Fatalf("trial %d: overrides %v vs %v", trial, dec.Overrides(), tab.Overrides())
		}
		for s := 0; s < shards; s++ {
			if !dec.Alive(s) {
				t.Fatalf("trial %d: liveness leaked through the encoding", trial)
			}
		}
		// Owners agree tile by tile — compare with liveness cleared on the
		// source, since the reroute is runtime state.
		for s := 0; s < shards; s++ {
			tab.SetDead(s, false)
		}
		for probe := 0; probe < 32; probe++ {
			tile := randomTile()
			if dec.Owner(tile) != tab.Owner(tile) {
				t.Fatalf("trial %d: tile %v owner %d vs %d", trial, tile, dec.Owner(tile), tab.Owner(tile))
			}
		}
	}
	// The magic "SVOT" (little-endian on the wire) headed the PR 3
	// band-only layout, which is no longer read: a complete table of that
	// shape (2 shards, 4-chunk bands, epoch 2, bands 1 and 2 overridden to
	// shard 1 — long enough to pass for the current layout) is refused
	// like any other unknown magic by a table of that geometry.
	svot := append([]byte("TOVS"), 2, 0, 0, 0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
		1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0)
	for _, bad := range [][]byte{[]byte("junk"), svot} {
		live := NewOwnershipTable(2, BandTopology{BandChunks: 4})
		if live.Adopt(bad) || live.Epoch() != 0 || len(live.Overrides()) != 0 {
			t.Fatalf("Adopt(%q) changed the table", bad)
		}
	}
}

// TestOwnershipAdoptEpochSkew pins the restart contract: a persisted
// table is adopted only when strictly newer and geometrically identical,
// so a stale or foreign snapshot can never roll live ownership back.
func TestOwnershipAdoptEpochSkew(t *testing.T) {
	topo := GridTopology{TilesX: 4, TilesZ: 4}
	old := NewOwnershipTable(4, topo)
	old.SetOwner(TileID{X: 1, Z: 0}, 3) // epoch 1

	live := NewOwnershipTable(4, topo)
	live.SetOwner(TileID{X: 2, Z: 2}, 0)
	live.SetOwner(TileID{X: 2, Z: 2}, 1) // epoch 2: ahead of the snapshot

	if live.Adopt(old.Encode()) {
		t.Fatal("Adopt accepted a stale (older-epoch) table")
	}
	if live.Owner(TileID{X: 1, Z: 0}) == 3 {
		t.Fatal("stale adoption leaked an override")
	}
	// Equal epochs are also refused (no change to adopt).
	if live.Adopt(live.Encode()) {
		t.Fatal("Adopt accepted an equal-epoch table")
	}
	// A strictly newer snapshot wins and replaces the override set.
	newer := NewOwnershipTable(4, topo)
	for i := 0; i < 3; i++ {
		newer.SetOwner(TileID{X: 3, Z: 3}, i) // epoch 3
	}
	if !live.Adopt(newer.Encode()) {
		t.Fatal("Adopt refused a newer matching table")
	}
	if live.Epoch() != newer.Epoch() || live.Owner(TileID{X: 3, Z: 3}) != 2 {
		t.Fatal("Adopt did not carry the newer overrides/epoch")
	}
	if live.Owner(TileID{X: 2, Z: 2}) == 1 {
		t.Fatal("Adopt kept a replaced override")
	}
	// Mismatched geometry is never adopted, whatever the epoch.
	foreign := NewOwnershipTable(4, GridTopology{TilesX: 2, TilesZ: 8})
	for i := 0; i < 8; i++ {
		foreign.SetOwner(TileID{X: 0, Z: i%2 + 1}, i%4)
	}
	if live.Adopt(foreign.Encode()) {
		t.Fatal("Adopt accepted a table with different geometry")
	}
	bandTab := NewOwnershipTable(4, nil)
	bandTab.epoch = 99
	if live.Adopt(bandTab.Encode()) {
		t.Fatal("Adopt accepted a table with a different topology kind")
	}
	fewer := NewOwnershipTable(3, topo)
	fewer.epoch = 99
	if live.Adopt(fewer.Encode()) {
		t.Fatal("Adopt accepted a table with a different shard count")
	}
}

// TestOwnerOfReroutedTileAllocatesNothing pins Owner's reroute of a tile
// whose owner is dead or retired to a look-up: the survivors are listed
// at the change, not at every look-up.
func TestOwnerOfReroutedTileAllocatesNothing(t *testing.T) {
	band := NewOwnershipTable(3, BandTopology{BandChunks: 4})
	band.SetDead(1, true)
	grid := NewOwnershipTable(4, GridTopology{TilesX: 4, TilesZ: 4})
	grid.Retire(3)
	for _, c := range []struct {
		tab  *OwnershipTable
		tile TileID
		gone int
	}{
		{band, TileID{X: 4}, 1},       // default owner 4 mod 3 = 1, dead
		{grid, TileID{X: 0, Z: 3}, 3}, // index 15, default owner 3, retired
	} {
		if got := c.tab.Owner(c.tile); got == c.gone {
			t.Fatalf("tile %v still routes to shard %d", c.tile, c.gone)
		}
		if n := testing.AllocsPerRun(100, func() { c.tab.Owner(c.tile) }); n != 0 {
			t.Fatalf("Owner of rerouted tile %v allocates %.1f times, want 0", c.tile, n)
		}
	}
}

// movesPair builds a table of the given shape, applies the history ops,
// and returns it with a clone the change ops were applied to. Each op is
// three bytes (kind, a, b): SetOwner, SetDead both ways, Grow (up to 8
// slots, which bounds the band period the oracle walks) or Retire.
func movesPair(grid bool, shape, shards uint8, history, change []byte) (before, after *OwnershipTable) {
	var topo Topology = BandTopology{BandChunks: 1 + int(shape%4)}
	if grid {
		topo = GridTopology{TilesX: 1 + int(shape%5), TilesZ: 1 + int(shape/5%5), TileChunks: 2}
	}
	before = NewOwnershipTable(1+int(shards%6), topo)
	apply := func(t *OwnershipTable, ops []byte) {
		for ; len(ops) >= 3; ops = ops[3:] {
			a, b := int(ops[1]), int(ops[2])
			switch ops[0] % 5 {
			case 0:
				tile := TileID{X: int(int8(ops[1])), Z: b}
				if grid {
					tile = topo.TileAt(a)
				}
				t.SetOwner(tile, b%t.Shards())
			case 1:
				t.SetDead(a%t.Shards(), true)
			case 2:
				t.SetDead(a%t.Shards(), false)
			case 3:
				if t.Shards() < 8 {
					t.Grow()
				}
			case 4:
				t.Retire(a % t.Shards())
			}
		}
	}
	apply(before, history)
	after = before.Clone()
	apply(after, change)
	return before, after
}

// bruteMoves is Moves' oracle: the owners of every tile index in a window
// several periods wide on both sides of every override, compared one by
// one. The product of Base and both alive counts is a period of the band
// ownership outside the overrides; a grid's period is its tile count.
func bruteMoves(before, after *OwnershipTable) (gains, losses []bool) {
	n := max(before.Shards(), after.Shards())
	gains, losses = make([]bool, n), make([]bool, n)
	topo := before.Topology()
	period, lo, hi := topo.Tiles(), 0, 0
	if period == 0 {
		period = before.Base() * before.AliveCount() * after.AliveCount()
		for _, o := range append(before.Overrides(), after.Overrides()...) {
			lo, hi = min(lo, topo.Index(o.Tile)), max(hi, topo.Index(o.Tile))
		}
	}
	for i := lo - 3*period; i <= hi+3*period; i++ {
		tile := topo.TileAt(i)
		if b, a := before.Owner(tile), after.Owner(tile); b != a {
			gains[a], losses[b] = true, true
		}
	}
	return gains, losses
}

// checkMoves fails unless Moves agrees with bruteMoves on the pair.
func checkMoves(t *testing.T, before, after *OwnershipTable) {
	t.Helper()
	gains, losses := Moves(before, after)
	wantGains, wantLosses := bruteMoves(before, after)
	if !slices.Equal(gains, wantGains) || !slices.Equal(losses, wantLosses) {
		t.Fatalf("%v: Moves = gains %v losses %v, brute force = gains %v losses %v\nbefore: %v alive %v\nafter: %v alive %v",
			before.Topology(), gains, losses, wantGains, wantLosses,
			before.Overrides(), before.alive, after.Overrides(), after.alive)
	}
}

// TestOwnershipMovesMatchesBruteForce holds Moves to the per-tile oracle
// over random grids and bands changed by random migrations, deaths,
// recoveries, growth and retirement.
func TestOwnershipMovesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	ops := func(max int) []byte {
		b := make([]byte, 3*rng.Intn(max+1))
		rng.Read(b)
		return b
	}
	for trial := 0; trial < 400; trial++ {
		before, after := movesPair(rng.Intn(2) == 0, uint8(rng.Intn(256)), uint8(rng.Intn(256)), ops(12), ops(3))
		checkMoves(t, before, after)
	}
}

// FuzzOwnershipMoves is TestOwnershipMovesMatchesBruteForce over fuzzed
// shapes and op sequences (see movesPair).
func FuzzOwnershipMoves(f *testing.F) {
	f.Add(false, uint8(3), uint8(2), []byte{0, 5, 1, 0, 250, 0}, []byte{1, 0, 0})
	f.Add(false, uint8(0), uint8(3), []byte{3, 0, 0, 0, 9, 3, 4, 1, 0}, []byte{0, 9, 0})
	f.Add(true, uint8(7), uint8(3), []byte{0, 2, 1, 1, 2, 0}, []byte{2, 2, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, grid bool, shape, shards uint8, history, change []byte) {
		before, after := movesPair(grid, shape, shards, history, change)
		checkMoves(t, before, after)
	})
}

func TestRegionViewFollowsLiveTable(t *testing.T) {
	tab := NewOwnershipTable(2, BandTopology{BandChunks: 4})
	r0, r1 := tab.View(0), tab.View(1)
	cp := ChunkPos{X: 9} // tile 2, default owner shard 0
	if !r0.Contains(cp) || r1.Contains(cp) {
		t.Fatal("initial ownership wrong")
	}
	tab.SetOwner(TileID{X: 2}, 1)
	if r0.Contains(cp) || !r1.Contains(cp) {
		t.Fatal("region views did not follow the migration")
	}
}

// adoptGeometries are the live tables FuzzAdoptOwnershipTable adopts
// into, fresh: the geometries of its seeds and of its checked-in corpus.
var adoptGeometries = []func() *OwnershipTable{
	func() *OwnershipTable { return NewOwnershipTable(1, nil) },
	func() *OwnershipTable { return NewOwnershipTable(3, BandTopology{BandChunks: 4}) },
	func() *OwnershipTable { return NewOwnershipTable(2, BandTopology{BandChunks: 4}) },
	func() *OwnershipTable {
		return NewOwnershipTable(4, GridTopology{TilesX: 3, TilesZ: 2, TileChunks: 2})
	},
	func() *OwnershipTable {
		return NewOwnershipTable(2, GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 4})
	},
	func() *OwnershipTable {
		return NewOwnershipTable(4, GridTopology{TilesX: 4, TilesZ: 4, TileChunks: 4})
	},
}

// ownershipAllocated returns the bytes adopting buf into a fresh table of
// every adoptGeometries shape allocated.
func ownershipAllocated(buf []byte) uint64 {
	live := make([]*OwnershipTable, len(adoptGeometries))
	for i, geo := range adoptGeometries {
		live[i] = geo()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, t := range live {
		t.Adopt(buf)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzAdoptOwnershipTable feeds Adopt arbitrary bytes: a restarting
// cluster reads its table back from storage into its live one. It must not
// panic, must not allocate more than a small multiple of its input (an
// override is one map entry per 12 input bytes; other goroutines of the
// test binary allocate too, so only an excess that repeats is Adopt's),
// and bytes that name another geometry, or an epoch that is not newer,
// must change nothing. Every override it adopts must be the one routing
// sees, and the adopted table must encode to bytes that a fresh table
// adopts with the same epoch and overrides. The seeds are encoded tables
// of both topology kinds; the checked-in corpus adds overrides under a
// tile alias, which decoding once stored verbatim where no lookup would
// route them.
func FuzzAdoptOwnershipTable(f *testing.F) {
	band := NewOwnershipTable(3, BandTopology{BandChunks: 4})
	band.SetOwner(TileID{X: -2}, 1)
	band.SetOwner(TileID{X: 5}, 2)
	grid := NewOwnershipTable(4, GridTopology{TilesX: 3, TilesZ: 2, TileChunks: 2})
	grid.SetOwner(TileID{X: 2, Z: 1}, 0)
	grid.SetOwner(TileID{X: 0, Z: 0}, 3)
	for _, tab := range []*OwnershipTable{NewOwnershipTable(1, nil), band, grid} {
		f.Add(tab.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(16*len(data) + 2048)
		for try := 0; ; try++ {
			got := ownershipAllocated(data)
			if got <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("adopting %d bytes allocated %d, want at most %d", len(data), got, limit)
			}
		}
		for _, geo := range adoptGeometries {
			tab := geo()
			fresh := tab.Encode()
			if !tab.Adopt(data) {
				if !bytes.Equal(tab.Encode(), fresh) {
					t.Fatalf("a refused Adopt changed the table: %x -> %x", fresh, tab.Encode())
				}
				continue
			}
			if !bytes.Equal(data[:24], fresh[:24]) || tab.Epoch() == 0 {
				t.Fatalf("adopted bytes that name geometry %x epoch %d into geometry %x epoch 0",
					data[:24], tab.Epoch(), fresh[:24])
			}
			for _, o := range tab.Overrides() {
				if got := tab.Owner(o.Tile); got != o.Owner {
					t.Fatalf("override %v -> shard %d is routed to shard %d", o.Tile, o.Owner, got)
				}
			}
			adopted := tab.Encode()
			if tab.Adopt(data) || tab.Adopt(adopted) || !bytes.Equal(tab.Encode(), adopted) {
				t.Fatal("a table adopted bytes whose epoch is not newer than its own")
			}
			again := geo()
			if !again.Adopt(adopted) || again.Epoch() != tab.Epoch() || !slices.Equal(again.Overrides(), tab.Overrides()) {
				t.Fatalf("round trip changed the table: epoch %d, %v -> epoch %d, %v",
					tab.Epoch(), tab.Overrides(), again.Epoch(), again.Overrides())
			}
		}
	})
}
