package world

import "iter"

// ChunkKey is the key shape a ChunkMap serves: ChunkPos and TileID.
type ChunkKey interface{ ~struct{ X, Z int } }

// xz is the shape every ChunkKey converts to.
type xz = struct{ X, Z int }

// ChunkMap is a hash map from a chunk-grid key to V, for the per-chunk and
// per-tile state on the tick path. A Go map hashes such a 16-byte key with
// the generic memhash; this table hashes (X, Z) with two multiplications
// and probes linearly over a power-of-two array.
//
// Every slot compares the whole key, so any int coordinates are valid
// keys. An all-zero slot is empty, which is why the zero key itself is
// held beside the table, and why a new or cleared table is only zeroed
// memory. Delete shifts the entries of its probe run back instead of
// leaving a tombstone, so churn never lengthens a probe. The table
// doubles when an insert would take it past 3/4 full and never shrinks:
// below its peak size nothing allocates, Clear included.
//
// All walks the zero key first, then the table in slot order. That order
// is a deterministic function of the operation sequence, not (X, Z)
// order: callers whose output depends on the order sort. The zero value
// is an empty map ready to use. Like a Go map it is not safe for
// concurrent writes, and an insert or Delete during All may make it skip
// or repeat an entry.
type ChunkMap[K ChunkKey, V any] struct {
	slots   []chunkSlot[K, V]
	shift   uint // 64 - log2(len(slots))
	n       int  // entries in slots
	zero    V    // the zero key's value, if hasZero
	hasZero bool
}

type chunkSlot[K ChunkKey, V any] struct {
	key K
	val V
}

// chunkMapMin is the table size of a map's first insert.
const chunkMapMin = 8

// home is the slot k's probe starts at: a multiplicative hash of (X, Z)
// whose top bits index the table. It is not a random-looking hash on
// purpose: the keys are chunk grids, dense rectangles and strips, and
// multiplying X·φ + Z by a second odd constant spreads a grid over the
// table more evenly than random slots would, so hits and misses probe
// fewer slots (1.0–1.5 and 1.5–3 on view-sized grids at up to 3/4 load,
// against 1.5–2.5 and 2.5–8.5 for a full mix), and a look-up mispredicts
// its probe loop less often.
func (m *ChunkMap[K, V]) home(k xz) int {
	h := (uint64(k.X)*0x9e3779b97f4a7c15 + uint64(k.Z)) * 0xbf58476d1ce4e5b9
	return int(h >> m.shift)
}

// Len returns the number of entries.
func (m *ChunkMap[K, V]) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored under k and whether there is one.
func (m *ChunkMap[K, V]) Get(k K) (V, bool) {
	p := xz(k)
	if p == (xz{}) {
		return m.zero, m.hasZero
	}
	if m.n == 0 {
		var none V
		return none, false
	}
	mask := len(m.slots) - 1
	for i := m.home(p); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch xz(s.key) {
		case p:
			return s.val, true
		case xz{}:
			var none V
			return none, false
		}
	}
}

// Put stores v under k, replacing any value there.
func (m *ChunkMap[K, V]) Put(k K, v V) {
	p := xz(k)
	if p == (xz{}) {
		m.zero, m.hasZero = v, true
		return
	}
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(p); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch xz(s.key) {
		case p:
			s.val = v
			return
		case xz{}:
			s.key, s.val = k, v
			m.n++
			return
		}
	}
}

// grow doubles the table (or makes the first one) and re-inserts every
// entry in slot order.
func (m *ChunkMap[K, V]) grow() {
	old := m.slots
	size := max(2*len(old), chunkMapMin)
	m.slots = make([]chunkSlot[K, V], size)
	m.shift = 64
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	mask := size - 1
	for _, s := range old {
		if xz(s.key) == (xz{}) {
			continue
		}
		i := m.home(xz(s.key))
		for xz(m.slots[i].key) != (xz{}) {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// Delete removes k's entry and returns the value it held and whether
// there was one.
func (m *ChunkMap[K, V]) Delete(k K) (V, bool) {
	var none V
	p := xz(k)
	if p == (xz{}) {
		v, ok := m.zero, m.hasZero
		m.zero, m.hasZero = none, false
		return v, ok
	}
	if m.n == 0 {
		return none, false
	}
	mask := len(m.slots) - 1
	i := m.home(p)
	for xz(m.slots[i].key) != p {
		if xz(m.slots[i].key) == (xz{}) {
			return none, false
		}
		i = (i + 1) & mask
	}
	v := m.slots[i].val
	// Backward shift: walk the rest of the probe run and move each entry
	// that may sit at the hole (its home is not cyclically inside the
	// stretch between the hole and it) into the hole.
	for j := (i + 1) & mask; xz(m.slots[j].key) != (xz{}); j = (j + 1) & mask {
		if (j-m.home(xz(m.slots[j].key)))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = chunkSlot[K, V]{}
	m.n--
	return v, true
}

// Clear removes every entry and keeps the table.
func (m *ChunkMap[K, V]) Clear() {
	clear(m.slots)
	var none V
	m.n, m.zero, m.hasZero = 0, none, false
}

// All yields every entry: the zero key first, then the table in slot
// order.
func (m *ChunkMap[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if m.hasZero && !yield(K{}, m.zero) {
			return
		}
		for i := range m.slots {
			if s := &m.slots[i]; xz(s.key) != (xz{}) && !yield(s.key, s.val) {
				return
			}
		}
	}
}
