// The gap audit's spatial index: a cell-sorted array of compact session
// records, cells one view distance wide. Two positions within Chebyshev
// distance `size` of each other lie in the same or adjacent cells, so the
// 3×3 cell neighbourhood of a record holds every partner it can have.
// The audit builds it only in a scan where some resident's ghost is
// missing from a shard hosting another resident (see
// Cluster.mirroredEverywhere); elsewhere the answer is known without it.
//
// The index keeps its cell order from one scan to the next. Every record
// carries its session's stable cluster slot, and group lays the new
// build's records out in the previous build's order: departed sessions
// drop out, the rest are re-keyed, and a stable insertion pass repairs
// the order — a resident moves a few blocks between scans, so most keep
// their cell and the pass touches each record once. Newcomers (a join, a
// resident entering the border zone, or everyone after a cell-size
// change, which forgets the history) are sorted among themselves and
// merged in, so a mass join costs what a full sort did. Records with the
// same key may end up in any order, and nothing downstream can tell: the
// audit builds holder bitsets and one boolean. A scan that skips the
// build leaves the order as it was, and the next build repairs from it.
// The arrays are reused across scans: a steady-state build allocates
// nothing.

package cluster

import (
	"cmp"
	"slices"
)

// visRec is one session's record in the index.
type visRec struct {
	// key is the packed cell (cellKey), the sort key.
	key uint64
	// x, z is the block position.
	x, z int
	// shard is the host shard.
	shard int32
	// id is the caller's number for the session in this build.
	id int32
	// slot is the session's stable identity across builds (its cluster
	// slot).
	slot int32
}

// dist is the Chebyshev distance in blocks between two records.
func (a *visRec) dist(b *visRec) int {
	dx, dz := a.x-b.x, a.z-b.z
	return max(dx, -dx, dz, -dz)
}

// visCellSpan is one occupied cell: the records recs[lo:hi].
type visCellSpan struct {
	key    uint64
	lo, hi int32
	// nb[:nn] are the occupied cells of the 3×3 neighbourhood, this one
	// included.
	nb [9]int32
	nn int32
}

// near returns the occupied cells of the cell's 3×3 neighbourhood.
func (s *visCellSpan) near() []int32 { return s.nb[:s.nn] }

// visIndex is the cell-sorted index. Build it with reset, add and group;
// every reset must end in a group.
type visIndex struct {
	size int
	// recs is the grouped order, which the next group starts from.
	recs []visRec
	// fresh holds this build's records in add order, and at[slot] is 1 +
	// a slot's position in it (0: absent; all zero outside a build).
	fresh []visRec
	at    []int32
	cells []visCellSpan
	// own[ci*words:] is the bitset of the shards hosting a record in cell
	// ci, and shardsNear[ci*words:] the union of own over the cell's
	// neighbourhood.
	own, shardsNear []uint64
}

// cellKey packs a cell into one sortable word: x-major, then z. Both
// halves are the cell coordinate's low 32 bits with the sign bit flipped,
// so negative cells sort before positive ones. Neighbour keys are
// computed by the same function from the same integers, so a neighbour is
// never missed; cells 2³² apart collide, which at worst lists a far cell
// as near — every pair check still measures the distance.
func cellKey(cx, cz int) uint64 {
	return uint64(uint32(int32(cx))^1<<31)<<32 | uint64(uint32(int32(cz))^1<<31)
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// reset starts a build for cells size blocks wide. A new cell size
// forgets the previous order: every record is re-keyed, so all of them
// would move.
func (ix *visIndex) reset(size int) {
	if size != ix.size {
		ix.forget()
	}
	ix.size = size
	ix.fresh = ix.fresh[:0]
}

// forget drops the previous build's order, so the next group sorts every
// record as a newcomer.
func (ix *visIndex) forget() { ix.recs = ix.recs[:0] }

// add indexes a session at block (x, z), hosted by shard, under the
// caller's number id and the session's stable slot (unique in a build).
func (ix *visIndex) add(x, z, shard, id, slot int) {
	if slot >= len(ix.at) {
		ix.at = append(ix.at, make([]int32, slot+1-len(ix.at))...)
	}
	ix.fresh = append(ix.fresh, visRec{
		key: cellKey(floorDiv(x, ix.size), floorDiv(z, ix.size)),
		x:   x, z: z, shard: int32(shard), id: int32(id), slot: int32(slot),
	})
	ix.at[slot] = int32(len(ix.fresh))
}

// group sorts this build's records into cells — starting from the
// previous build's order, see the file comment — lists each cell's
// neighbourhood, and fills own and shardsNear with bitsets of words
// words.
func (ix *visIndex) group(words int) {
	// Survivors: this build's records in the previous build's order,
	// written over that order.
	n := 0
	for i := range ix.recs {
		slot := ix.recs[i].slot
		if at := ix.at[slot]; at != 0 {
			ix.recs[n] = ix.fresh[at-1]
			ix.at[slot] = 0
			n++
		}
	}
	recs := ix.recs[:n]
	// Repair the order: stable, and one step per record that kept its
	// place.
	for i := 1; i < n; i++ {
		if recs[i].key >= recs[i-1].key {
			continue
		}
		r, j := recs[i], i
		for ; j > 0 && recs[j-1].key > r.key; j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
	// Newcomers: the records no survivor took, written over fresh, then
	// sorted and merged in from the back.
	newc := ix.fresh[:0]
	for i := range ix.fresh {
		if slot := ix.fresh[i].slot; ix.at[slot] != 0 {
			newc = append(newc, ix.fresh[i])
			ix.at[slot] = 0
		}
	}
	if len(newc) > 0 {
		slices.SortFunc(newc, func(a, b visRec) int { return cmp.Compare(a.key, b.key) })
		recs = slices.Grow(recs, len(newc))[:n+len(newc)]
		for i, j, k := n-1, len(newc)-1, len(recs)-1; j >= 0; k-- {
			if i >= 0 && recs[i].key > newc[j].key {
				recs[k] = recs[i]
				i--
			} else {
				recs[k] = newc[j]
				j--
			}
		}
	}
	ix.recs = recs

	ix.cells = ix.cells[:0]
	for i := range ix.recs {
		if i == 0 || ix.recs[i].key != ix.recs[i-1].key {
			ix.cells = append(ix.cells, visCellSpan{key: ix.recs[i].key, lo: int32(i)})
		}
		ix.cells[len(ix.cells)-1].hi = int32(i + 1)
	}
	for ci := range ix.cells {
		cell := &ix.cells[ci]
		r := &ix.recs[cell.lo]
		cx, cz := floorDiv(r.x, ix.size), floorDiv(r.z, ix.size)
		cell.nn = 0
		for dx := -1; dx <= 1; dx++ {
			for dz := -1; dz <= 1; dz++ {
				if j := ix.find(cellKey(cx+dx, cz+dz)); j >= 0 {
					cell.nb[cell.nn] = int32(j)
					cell.nn++
				}
			}
		}
	}
	ix.own = zeroed(ix.own, len(ix.cells)*words)
	ix.shardsNear = zeroed(ix.shardsNear, len(ix.cells)*words)
	for ci := range ix.cells {
		cell := &ix.cells[ci]
		own := ix.own[ci*words : (ci+1)*words]
		for i := cell.lo; i < cell.hi; i++ {
			setBit(own, int(ix.recs[i].shard))
		}
	}
	for ci := range ix.cells {
		near := ix.shardsNear[ci*words : (ci+1)*words]
		for _, j := range ix.cells[ci].near() {
			for w, m := range ix.own[int(j)*words : (int(j)+1)*words] {
				near[w] |= m
			}
		}
	}
}

// find returns the index of the cell with the given key, or -1.
func (ix *visIndex) find(key uint64) int {
	lo, hi := 0, len(ix.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.cells[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ix.cells) && ix.cells[lo].key == key {
		return lo
	}
	return -1
}

// hasGap is the gap audit over an index grouped with group(words), its
// cells one view distance wide: it reports whether two records on
// different shards within view distance of each other are not mirrored
// both ways, where holders[id*words:(id+1)*words] is the bitset of the
// shards holding record id's ghost. Only the bits of the shards near the
// record (shardsNear, its own shard aside) are read.
//
// The cover test spares most records every pair check: one whose holders
// include every shard near it is mirrored wherever a partner of it can
// be hosted. A record that fails walks its neighbourhood and checks one
// direction of each pair — that the partner's shard holds it. The other
// direction is the partner's own check, and the partner does fail its
// cover test when its holders lack this record's shard, because this
// record's shard is near it. So the result is exact, and no pair is
// looked at unless a ghost is actually missing near it.
func (ix *visIndex) hasGap(holders []uint64, words int) bool {
	for ci := range ix.cells {
		cell := &ix.cells[ci]
		near := ix.shardsNear[ci*words : (ci+1)*words]
		for i := cell.lo; i < cell.hi; i++ {
			a := &ix.recs[i]
			h := holders[int(a.id)*words : (int(a.id)+1)*words]
			if covers(h, near, int(a.shard)) {
				continue
			}
			for _, j := range cell.near() {
				nc := &ix.cells[j]
				for k := nc.lo; k < nc.hi; k++ {
					b := &ix.recs[k]
					if b.shard != a.shard && !hasBit(h, int(b.shard)) && a.dist(b) <= ix.size {
						return true
					}
				}
			}
		}
	}
	return false
}

// covers reports whether the bitset h holds every shard of near except
// own.
func covers(h, near []uint64, own int) bool {
	for w, m := range near {
		m &^= h[w]
		if w == own>>6 {
			m &^= 1 << (own & 63)
		}
		if m != 0 {
			return false
		}
	}
	return true
}

func setBit(s []uint64, i int)      { s[i>>6] |= 1 << (i & 63) }
func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func bitWords(n int) int            { return (n + 63) >> 6 }

// zeroed returns s resized to n cleared words, reusing its array.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
