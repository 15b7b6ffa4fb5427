package world

import (
	"fmt"
	"math"
	"testing"
)

// keyScales spreads a fuzzed byte pair over the key space: dense grids
// around the origin, chunk- and tile-like strides, and keys that differ
// only in their high bits (a table that compared hashes, or packed the
// key into fewer bits, would merge them).
var keyScales = [8]int{1, 1, 1, 16, 1 << 27, 1 << 32, 1 << 48, math.MinInt64 >> 7}

// chunkMapOp decodes one fuzzed op: a kind and a key.
func chunkMapOp(b []byte) (kind byte, k ChunkPos) {
	scale := keyScales[b[0]>>5]
	return b[0] & 0x1f, ChunkPos{X: int(int8(b[1])) * scale, Z: int(int8(b[2])) * scale}
}

// checkChunkMap fails unless m holds exactly the model's entries: Len,
// a Get of every model key and of probe, and the set All yields (each
// key once), plus an All stopped after its first entry.
func checkChunkMap(t *testing.T, when string, m *ChunkMap[ChunkPos, int], model map[ChunkPos]int, probe ChunkPos) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model holds %d", when, m.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("%s: Get(%v) = %d, %v; model %d", when, k, got, ok, want)
		}
	}
	want, inModel := model[probe]
	if got, ok := m.Get(probe); ok != inModel || got != want {
		t.Fatalf("%s: Get(%v) = %d, %v; model %d, %v", when, probe, got, ok, want, inModel)
	}
	seen := make(map[ChunkPos]bool, len(model))
	for k, v := range m.All() {
		if seen[k] {
			t.Fatalf("%s: All yields %v twice", when, k)
		}
		seen[k] = true
		if mv, ok := model[k]; !ok || mv != v {
			t.Fatalf("%s: All yields %v = %d, model %d, %v", when, k, v, mv, ok)
		}
	}
	if len(seen) != len(model) {
		t.Fatalf("%s: All yields %d entries, model holds %d", when, len(seen), len(model))
	}
	n := 0
	for range m.All() {
		n++
		break
	}
	if n != min(len(model), 1) {
		t.Fatalf("%s: an All stopped at once yielded %d entries", when, n)
	}
}

// FuzzChunkMap holds ChunkMap to a Go map: each 3-byte op is a Put, Get,
// Delete, an 8×8 grid of Puts, or (rarely) a Clear, on a key spread by
// keyScales; after every op the two must hold the same entries.
func FuzzChunkMap(f *testing.F) {
	grid := []byte{}
	for i := 0; i < 40; i++ {
		grid = append(grid, 24, byte(8*i), byte(-8*i)) // grids along a diagonal
	}
	for i := 0; i < 40; i++ {
		grid = append(grid, 16, byte(8*i+3), byte(-8*i+3)) // delete inside them
	}
	f.Add(grid)
	f.Add([]byte{0, 0, 0, 16, 0, 0, 0, 1, 0, 0, 0, 1, 31, 0, 0, 0, 0, 0})
	f.Add([]byte{0xc0, 1, 2, 0xe0, 1, 2, 0xa0, 1, 2, 0xd0, 1, 2, 0xc0, 1, 2})
	churn := []byte{}
	for i := 0; i < 64; i++ {
		churn = append(churn, 0, byte(i), byte(i>>3), 16, byte(i-5), byte((i-5)>>3))
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m ChunkMap[ChunkPos, int]
		model := map[ChunkPos]int{}
		for i := 0; i+3 <= len(ops); i += 3 {
			kind, k := chunkMapOp(ops[i:])
			when := fmt.Sprintf("op %d (kind %d, %v)", i/3, kind, k)
			switch {
			case kind < 12:
				m.Put(k, i)
				model[k] = i
			case kind < 20:
				v, ok := m.Delete(k)
				mv, mok := model[k]
				if ok != mok || v != mv {
					t.Fatalf("%s: Delete = %d, %v; model %d, %v", when, v, ok, mv, mok)
				}
				delete(model, k)
			case kind < 24:
				// Get: the check below looks k up.
			case kind < 31:
				for dx := 0; dx < 8; dx++ {
					for dz := 0; dz < 8; dz++ {
						g := ChunkPos{X: k.X + dx, Z: k.Z + dz}
						m.Put(g, i+dx*8+dz)
						model[g] = i + dx*8 + dz
					}
				}
			default:
				m.Clear()
				clear(model)
			}
			checkChunkMap(t, when, &m, model, k)
		}
	})
}

// TestChunkMapProbes: on a dense grid, scattered view squares, a
// tile-strided lattice, a long row and a long column — the shapes the
// server's keys take — a hit probes at most 2.5 slots on average and a
// miss one chunk off the shape at most 4, at the load just below a
// growth (3/4) and just above (3/8). A full-mix hash reads ≈ 2.9 and
// 8.5 on the grid at 3/4, a badly chosen second multiplier 20 and 64 on
// the view squares.
func TestChunkMapProbes(t *testing.T) {
	shapes := map[string]func(i int) ChunkPos{
		"grid": func(i int) ChunkPos { return ChunkPos{X: i%48 - 24, Z: i/48 - 24} },
		"views": func(i int) ChunkPos {
			c, j := i/289, i%289
			return ChunkPos{X: (c*37)%200 - 100 + j%17, Z: (c*53)%200 - 100 + j/17}
		},
		"lattice/16": func(i int) ChunkPos { return ChunkPos{X: 16 * (i%48 - 24), Z: 16 * (i/48 - 24)} },
		"row":        func(i int) ChunkPos { return ChunkPos{X: i - 1000, Z: 7} },
		"column":     func(i int) ChunkPos { return ChunkPos{X: 3, Z: i - 1000} },
	}
	for name, key := range shapes {
		for _, n := range []int{1536, 1537} {
			var m ChunkMap[ChunkPos, int]
			for i := 0; i < n; i++ {
				m.Put(key(i), i)
			}
			hits, misses, missed := 0, 0, 0
			for i := 0; i < n; i++ {
				hits += probeLen(&m, key(i))
				k := key(i)
				for _, miss := range []ChunkPos{{X: k.X + 1, Z: k.Z}, {X: k.X, Z: k.Z - 1}} {
					if _, ok := m.Get(miss); !ok {
						misses += probeLen(&m, miss)
						missed++
					}
				}
			}
			if hit, miss := float64(hits)/float64(n), float64(misses)/float64(missed); hit > 2.5 || miss > 4 {
				t.Errorf("%s at %d/%d load: %.2f slots probed a hit, %.2f a miss", name, m.Len(), len(m.slots), hit, miss)
			}
		}
	}
}

// probeLen counts the slots a Get of k reads: up to k's own, or to the
// empty slot that ends k's probe.
func probeLen(m *ChunkMap[ChunkPos, int], k ChunkPos) int {
	mask := len(m.slots) - 1
	n := 1
	for i := m.home(xz(k)); m.slots[i].key != k && m.slots[i].key != (ChunkPos{}); i = (i + 1) & mask {
		n++
	}
	return n
}

// TestChunkMapZeroAlloc: below its peak size a map allocates nothing —
// look-ups, All, Put/Delete churn, and a Clear and refill.
func TestChunkMapZeroAlloc(t *testing.T) {
	var m ChunkMap[ChunkPos, []byte]
	val := []byte("v")
	for x := -20; x < 20; x++ {
		for z := -20; z < 20; z++ {
			m.Put(ChunkPos{X: x, Z: z}, val)
		}
	}
	round := 0
	got := testing.AllocsPerRun(50, func() {
		round++
		col := round%40 - 20
		for z := -20; z < 20; z++ {
			if _, ok := m.Get(ChunkPos{X: col, Z: z}); !ok {
				t.Fatalf("chunk(%d,%d) is missing", col, z)
			}
		}
		for range m.All() {
		}
		for z := -20; z < 20; z++ {
			m.Delete(ChunkPos{X: col, Z: z})
		}
		for z := -20; z < 20; z++ {
			m.Put(ChunkPos{X: 1000 + col, Z: z}, val)
		}
		for z := -20; z < 20; z++ {
			m.Delete(ChunkPos{X: 1000 + col, Z: z})
			m.Put(ChunkPos{X: col, Z: z}, val)
		}
		if round%10 == 0 {
			m.Clear()
			for x := -20; x < 20; x++ {
				for z := -20; z < 20; z++ {
					m.Put(ChunkPos{X: x, Z: z}, val)
				}
			}
		}
	})
	if got != 0 {
		t.Fatalf("%v allocations per round below peak size, want 0", got)
	}
	if m.Len() != 1600 {
		t.Fatalf("Len = %d after the churn, want 1600", m.Len())
	}
}
