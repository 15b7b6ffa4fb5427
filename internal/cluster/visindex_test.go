// Tests for the visibility bus's spatial index and the gap audit it
// runs: the audit (visIndex.hasGap, with its cover test) is checked
// against an all-pairs reference on random residents (TestGapAudit*,
// FuzzGapAudit), and against a ghost removed from a live cluster; the
// index's order repair (group starting from the previous build) is
// checked against a build from scratch after every FuzzGapAudit op.

package cluster

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"servo/internal/world"
)

// gapResident is one audit input: a position, a host shard, the bitset
// of the shards holding the resident's ghost, and the resident's stable
// slot in the index.
type gapResident struct {
	x, z, shard int
	holders     []uint64
	slot        int
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

// indexedGap runs the audit the bus runs: the residents go into ix at
// view-sized cells, and hasGap reads their holder sets.
func indexedGap(ix *visIndex, rs []gapResident, view, words int) bool {
	ix.reset(view)
	holders := make([]uint64, 0, len(rs)*words)
	for i, r := range rs {
		ix.add(r.x, r.z, r.shard, i, r.slot)
		holders = append(holders, r.holders...)
	}
	ix.group(words)
	return ix.hasGap(holders, words)
}

// TestGapAuditMatchesAllPairs drives the audit with random residents —
// 2 to 70 shards (so holder sets of one and two words), negative
// coordinates, points on cell edges, hosts that mostly follow a tile
// grid but are sometimes displaced to any shard, and holder sets with
// holes at random — and compares it with the all-pairs reference.
func TestGapAuditMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ix visIndex
	outcomes := map[bool]int{}
	for trial := 0; trial < 2000; trial++ {
		shards := 2 + rng.Intn(69)
		words := bitWords(shards)
		view := 1 + rng.Intn(40)
		tile := view * (1 + rng.Intn(3))
		holes := []float64{0, 0.002, 0.02, 0.2}[rng.Intn(4)]
		rs := make([]gapResident, rng.Intn(120))
		coord := func() int {
			if rng.Intn(3) == 0 {
				// A cell edge, or one block either side of it.
				return view*(rng.Intn(9)-4) + rng.Intn(3) - 1
			}
			return rng.Intn(8*view+1) - 4*view
		}
		for i := range rs {
			r := &rs[i]
			r.x, r.z, r.slot = coord(), coord(), i
			r.shard = ((floorDiv(r.x, tile)*7 + floorDiv(r.z, tile)*13) & 0xffff) % shards
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
		if got := indexedGap(&ix, rs, view, words); got != want {
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
//   - kind 3 departs resident k, freeing its slot for the next placement;
//   - kind 4 changes the view distance (the cell size) to 1 + data[1]%24;
//   - kind 5 places 1 + data[1]%48 residents at once, in rows of eight
//     three blocks apart from (x, z) (a mass join);
//   - kind 6 shifts every resident by (x, z).
//
// After every op the audit must agree with the all-pairs reference, and
// the index, repaired from the previous op's order, must equal one built
// from scratch (sameGrouping).
func gapOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	shards, view := 2+int(data[0])%69, 1+int(data[1])%24
	words := bitWords(shards)
	var ix, scratch visIndex
	var rs []gapResident
	var free []int
	slots := 0
	place := func(x, z, shard int) {
		r := gapResident{x: x, z: z, shard: shard, holders: make([]uint64, words), slot: slots}
		if n := len(free); n > 0 {
			r.slot, free = free[n-1], free[:n-1]
		} else {
			slots++
		}
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
			free = append(free, rs[k%len(rs)].slot)
			rs = slices.Delete(rs, k%len(rs), k%len(rs)+1)
		case kind == 6:
			for i := range rs {
				rs[i].x += x
				rs[i].z += z
			}
		}
		if got, want := indexedGap(&ix, rs, view, words), allPairsGap(rs, view); got != want {
			t.Fatalf("op %d (kind %d, %d residents, %d shards, view %d): audit says gap=%v, all pairs say %v",
				op, kind, len(rs), shards, view, got, want)
		}
		scratch.forget()
		indexedGap(&scratch, rs, view, words)
		if err := sameGrouping(&ix, &scratch, words); err != "" {
			t.Fatalf("op %d (kind %d, %d residents, view %d): the repaired index differs from a fresh build: %s",
				op, kind, len(rs), view, err)
		}
	}
}

// sameGrouping compares two grouped indexes over the same records: the
// same cell keys in order, the same records in each cell (in any order),
// the same neighbourhoods and the same shard bitsets. It returns what
// differs, or "".
func sameGrouping(a, b *visIndex, words int) string {
	if len(a.cells) != len(b.cells) {
		return "cell count"
	}
	bySlot := func(x, y visRec) int { return cmp.Compare(x.slot, y.slot) }
	for ci := range a.cells {
		ca, cb := &a.cells[ci], &b.cells[ci]
		if ca.key != cb.key {
			return "cell keys"
		}
		ra := slices.SortedFunc(slices.Values(a.recs[ca.lo:ca.hi]), bySlot)
		rb := slices.SortedFunc(slices.Values(b.recs[cb.lo:cb.hi]), bySlot)
		if !slices.Equal(ra, rb) {
			return "records of a cell"
		}
		if !slices.Equal(ca.near(), cb.near()) {
			return "neighbourhood"
		}
	}
	if !slices.Equal(a.own[:len(a.cells)*words], b.own[:len(b.cells)*words]) ||
		!slices.Equal(a.shardsNear[:len(a.cells)*words], b.shardsNear[:len(b.cells)*words]) {
		return "shard bitsets"
	}
	return ""
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
// ten blocks apart across a band seam are mirrored both ways; then shard 1
// loses alice's ghost between two scans. The second scan's digests are
// rate-limited, so nothing restores the ghost before the audit runs, and
// the scan must count a gap tick. On two bands every host mirrors every
// resident, so the healthy scan answers through the cheap first question
// (mirroredEverywhere) and builds no index; on three bands, with
// residents at both seams, a resident at the 0|1 seam is not mirrored on
// shard 2, so the question fails on the healthy scan and the exact audit
// must answer both scans.
func TestGapAuditSeesMissingGhost(t *testing.T) {
	type resident struct {
		name     string
		x, shard int
	}
	for _, tc := range []struct {
		name      string
		shards    int
		residents []resident
		shortcut  bool
	}{
		{"two-bands", 2, []resident{{"alice", 60, 0}, {"bob", 70, 1}}, true},
		{"three-bands", 3, []resident{{"alice", 60, 0}, {"bob", 70, 1}, {"dan", 122, 1}, {"carol", 132, 2}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newTestCluster(t, 48, tc.shards, Config{Visibility: VisibilityConfig{Enabled: true, Margin: 16}})
			for _, r := range tc.residents {
				if p := c.ConnectAt(r.name, nil, world.BlockPos{X: r.x, Y: 0, Z: 8}); p.Shard() != r.shard {
					t.Fatalf("setup: %s on shard %d, want %d", r.name, p.Shard(), r.shard)
				}
			}
			c.VisibilityScanOnce()
			if ghostNamed(c.Shard(1), "alice") == nil || ghostNamed(c.Shard(0), "bob") == nil {
				t.Fatal("setup: the pair is not mirrored both ways")
			}
			if got := c.mirroredEverywhere(c.visAll, c.visResidents, c.visHosts); got != tc.shortcut {
				t.Fatalf("every host mirrors every resident: %v, want %v", got, tc.shortcut)
			}
			if built := len(c.visAuditIdx.cells) > 0; built == tc.shortcut {
				t.Fatalf("the healthy scan built the audit index: %v, want %v", built, !tc.shortcut)
			}
			if got := c.VisibilityGaps.Value(); got != 0 {
				t.Fatalf("visibility gap ticks = %d after a healthy scan, want 0", got)
			}
			skipped := c.digestsSkipped.Value()
			c.Shard(1).RemoveGhost(c.intern("alice"))
			c.VisibilityScanOnce()
			if c.digestsSkipped.Value() == skipped {
				t.Fatal("the scan republished its digests; the removed ghost was restored before the audit")
			}
			if got := c.VisibilityGaps.Value(); got != 1 {
				t.Fatalf("visibility gap ticks = %d after shard 1 lost alice's ghost, want 1", got)
			}
		})
	}
}

// TestGapAuditIndexZeroAlloc: the audit's index, rebuilt every scan from
// the previous order with residents stepping across cell edges and a
// ghost missing (so the exact audit runs), allocates nothing in steady
// state.
func TestGapAuditIndexZeroAlloc(t *testing.T) {
	const view, shards = 32, 4
	words := bitWords(shards)
	rs := make([]gapResident, 300)
	for i := range rs {
		r := &rs[i]
		r.x, r.z, r.slot = 17+i%29, 17+i/29*2, i
		r.shard = floorDiv(r.x, view) + 2*floorDiv(r.z, view)
		r.holders = make([]uint64, words)
		for s := 0; s < shards; s++ {
			if i != 0 || s == r.shard {
				setBit(r.holders, s)
			}
		}
	}
	var ix visIndex
	holders := make([]uint64, 0, len(rs)*words)
	step := 1
	build := func() {
		for i := range rs {
			rs[i].x, rs[i].z = rs[i].x+step, rs[i].z+step
		}
		step = -step
		ix.reset(view)
		holders = holders[:0]
		for i, r := range rs {
			ix.add(r.x, r.z, r.shard, i, r.slot)
			holders = append(holders, r.holders...)
		}
		ix.group(words)
		if !ix.hasGap(holders, words) {
			t.Fatal("resident 0 is mirrored nowhere, and the audit sees no gap")
		}
	}
	for range 4 {
		build()
	}
	if got := testing.AllocsPerRun(20, build); got != 0 {
		t.Fatalf("steady-state audit index build: %v allocs, want 0", got)
	}
}
