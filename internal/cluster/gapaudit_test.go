// Tests for the visibility bus's gap audit: hasGap is checked against
// an all-pairs reference on random residents (TestGapAudit*,
// FuzzGapAudit), and against ghosts removed from a live cluster.

package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"servo/internal/world"
)

// gapResident is one audit input: a position, a host shard and the
// bitset of the shards holding the resident's ghost.
type gapResident struct {
	x, z, shard int
	holders     []uint64
}

// allPairsGap is the reference audit: every pair of residents on
// different shards within Chebyshev distance view must be mirrored both
// ways.
func allPairsGap(rs []gapResident, view int) bool {
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			a, b := &rs[i], &rs[j]
			if a.shard == b.shard || max(a.x-b.x, b.x-a.x, a.z-b.z, b.z-a.z) > view {
				continue
			}
			if !hasBit(a.holders, b.shard) || !hasBit(b.holders, a.shard) {
				return true
			}
		}
	}
	return false
}

// auditGap runs the audit the bus runs on the residents, laid out as the
// scan lays them out: sessions, the residents' indexes among them, and
// the suspects — residents whose ghost some other host shard lacks —
// with the bitsets of those shards.
func auditGap(rs []gapResident, view, words int) bool {
	all := make([]visSess, len(rs))
	residents := make([]int, len(rs))
	hosts := make([]uint64, words)
	for i, r := range rs {
		all[i] = visSess{p: &Player{shard: r.shard}, pos: world.BlockPos{X: r.x, Z: r.z}}
		residents[i] = i
		setBit(hosts, r.shard)
	}
	var suspects []int
	var missing []uint64
	for i, r := range rs {
		row := make([]uint64, words)
		for w := range row {
			row[w] = hosts[w] &^ r.holders[w]
		}
		row[r.shard>>6] &^= 1 << (r.shard & 63)
		if slices.ContainsFunc(row, func(m uint64) bool { return m != 0 }) {
			suspects = append(suspects, i)
			missing = append(missing, row...)
		}
	}
	return hasGap(all, residents, suspects, missing, view)
}

// TestGapAuditMatchesAllPairs drives the audit with random residents —
// 2 to 70 shards (so holder sets of one and two words), negative
// coordinates, points exactly a view distance apart, hosts that mostly
// follow a tile grid but are sometimes displaced to any shard, and
// holder sets with holes at random — and compares it with the all-pairs
// reference.
func TestGapAuditMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	outcomes := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		shards := 2 + rng.Intn(69)
		words := bitWords(shards)
		view := 1 + rng.Intn(40)
		tile := view * (1 + rng.Intn(3))
		tileOf := func(a int) int { // floor(a / tile)
			if a < 0 {
				return -((tile - 1 - a) / tile)
			}
			return a / tile
		}
		holes := []float64{0, 0.002, 0.02, 0.2}[rng.Intn(4)]
		rs := make([]gapResident, rng.Intn(120))
		coord := func() int {
			if rng.Intn(3) == 0 {
				// A multiple of the view distance, or one block either
				// side of it.
				return view*(rng.Intn(9)-4) + rng.Intn(3) - 1
			}
			return rng.Intn(8*view+1) - 4*view
		}
		for i := range rs {
			r := &rs[i]
			r.x, r.z = coord(), coord()
			r.shard = ((tileOf(r.x)*7 + tileOf(r.z)*13) & 0xffff) % shards
			if rng.Intn(10) == 0 {
				r.shard = rng.Intn(shards)
			}
			r.holders = make([]uint64, words)
			for s := 0; s < shards; s++ {
				if rng.Float64() >= holes {
					setBit(r.holders, s)
				}
			}
		}
		want := allPairsGap(rs, view)
		if got := auditGap(rs, view, words); got != want {
			t.Fatalf("trial %d (%d shards, view %d, %d residents): audit says gap=%v, all pairs say %v", trial, shards, view, len(rs), got, want)
		}
		outcomes[want]++
	}
	if outcomes[true] < 200 || outcomes[false] < 200 {
		t.Fatalf("outcomes %v: too few of one kind; the test proves little", outcomes)
	}
}

// gapOps is the model check behind FuzzGapAudit. data[0] picks the shard
// count (2..70) and data[1] the view distance (1..24); every following
// 4-byte group is one op on resident k = data[1] (modulo the count) at
// (x, z) = (int8 data[2], int8 data[3]):
//   - kind 0 places a resident with every ghost at (x, z) on shard k;
//   - kind 1 moves resident k to (x, z);
//   - kind 2 un-ghosts resident k from shard data[2];
//   - kind 3 departs resident k;
//   - kind 4 changes the view distance to 1 + data[1]%24;
//   - kind 5 places 1 + data[1]%48 residents at once, in rows of eight
//     three blocks apart from (x, z) (a mass join);
//   - kind 6 shifts every resident by (x, z).
//
// After every op the audit must agree with the all-pairs reference.
func gapOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	shards, view := 2+int(data[0])%69, 1+int(data[1])%24
	words := bitWords(shards)
	var rs []gapResident
	place := func(x, z, shard int) {
		r := gapResident{x: x, z: z, shard: shard, holders: make([]uint64, words)}
		for s := 0; s < shards; s++ {
			setBit(r.holders, s)
		}
		rs = append(rs, r)
	}
	const maxOps = 256
	for op, data := 0, data[2:]; op < maxOps && len(data) >= 4; op, data = op+1, data[4:] {
		kind, k := data[0]%7, int(data[1])
		x, z := int(int8(data[2])), int(int8(data[3]))
		switch {
		case kind == 0:
			place(x, z, k%shards)
		case kind == 4:
			view = 1 + k%24
		case kind == 5:
			for j := 0; j <= k%48; j++ {
				place(x+3*(j%8), z+3*(j/8), (k+j)%shards)
			}
		case len(rs) == 0:
			continue
		case kind == 1:
			rs[k%len(rs)].x, rs[k%len(rs)].z = x, z
		case kind == 2:
			s := int(data[2]) % shards
			rs[k%len(rs)].holders[s>>6] &^= 1 << (s & 63)
		case kind == 3:
			rs = slices.Delete(rs, k%len(rs), k%len(rs)+1)
		case kind == 6:
			for i := range rs {
				rs[i].x += x
				rs[i].z += z
			}
		}
		if got, want := auditGap(rs, view, words), allPairsGap(rs, view); got != want {
			t.Fatalf("op %d (kind %d, %d residents, %d shards, view %d): audit says gap=%v, all pairs say %v",
				op, kind, len(rs), shards, view, got, want)
		}
	}
}

// FuzzGapAudit is the model check of the gap audit; see gapOps. Its
// seeds are the files under testdata/fuzz/FuzzGapAudit, named for what
// each sequence exercises; go test runs them in tier-1.
func FuzzGapAudit(f *testing.F) {
	f.Fuzz(gapOps)
}

// TestGapOpsRandom drives gapOps with random sequences.
func TestGapOpsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		data := make([]byte, 2+4*96)
		r.Read(data)
		gapOps(t, data)
	}
}

// TestGapAuditSeesMissingGhost: the audit on a live cluster. Residents
// ten blocks apart across a band seam are mirrored both ways, and erin,
// on shard 1 at the same seam, is 192 blocks down the seam from every
// shard-0 resident. Between scans shard 0 loses erin's ghost, and then
// shard 1 loses alice's. The digests of those scans are rate-limited, so
// nothing restores a ghost before the audit runs: erin's missing ghost is
// out of view of every shard-0 resident and must count no gap tick, and
// alice's is in view of bob and must count one. On three bands, with
// residents at both seams, some host shard lacks a ghost on the healthy
// scan too (shard 2 does not mirror the 0|1 seam), so the pair walk runs
// on every scan there.
func TestGapAuditSeesMissingGhost(t *testing.T) {
	type resident struct {
		name  string
		x, z  int
		shard int
	}
	erin := resident{"erin", 70, 200, 1}
	for _, tc := range []struct {
		name      string
		shards    int
		residents []resident
	}{
		{"two-bands", 2, []resident{{"alice", 60, 8, 0}, {"bob", 70, 8, 1}, erin}},
		{"three-bands", 3, []resident{{"alice", 60, 8, 0}, {"bob", 70, 8, 1}, erin, {"dan", 122, 8, 1}, {"carol", 132, 8, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestCluster(t, 48, tc.shards, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
			for _, r := range tc.residents {
				if p := c.ConnectAt(r.name, nil, world.BlockPos{X: r.x, Y: 0, Z: r.z}); p.Shard() != r.shard {
					t.Fatalf("setup: %s on shard %d, want %d", r.name, p.Shard(), r.shard)
				}
			}
			c.VisibilityScanOnce()
			if ghostNamed(c.Shard(1), "alice") == nil || ghostNamed(c.Shard(0), "bob") == nil || ghostNamed(c.Shard(0), "erin") == nil {
				t.Fatal("setup: the seam residents are not mirrored both ways")
			}
			if got := c.VisibilityGaps.Value(); got != 0 {
				t.Fatalf("visibility gap ticks = %d after a healthy scan, want 0", got)
			}
			for _, drop := range []struct {
				shard int
				name  string
				gaps  int64
			}{{0, "erin", 0}, {1, "alice", 1}} {
				skipped := c.digestsSkipped.Value()
				c.Shard(drop.shard).RemoveGhost(c.intern(drop.name))
				c.VisibilityScanOnce()
				if c.digestsSkipped.Value() == skipped {
					t.Fatalf("the scan republished its digests; %s's removed ghost was restored before the audit", drop.name)
				}
				if got := c.VisibilityGaps.Value(); got != drop.gaps {
					t.Fatalf("visibility gap ticks = %d after shard %d lost %s's ghost, want %d", got, drop.shard, drop.name, drop.gaps)
				}
			}
		})
	}
}
