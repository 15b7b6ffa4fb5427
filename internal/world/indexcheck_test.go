package world

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleCheckIndices is the index check one index at a time, each read
// bit by bit: the scalar form checkIndices is held to. The count is fixed
// before the loop, which reads data in place.
func oracleCheckIndices(data []byte, bits uint, palLen int) error {
	n := len(data) * 8 / int(bits)
	for i := 0; i < n; i++ {
		if idx := readBits(data, uint(i)*bits, bits); int(idx) >= palLen {
			return fmt.Errorf("%w: palette index %d out of range", ErrBadChunkEncoding, idx)
		}
	}
	return nil
}

// putIndex overwrites the i-th bits-wide index of data with v.
func putIndex(data []byte, i int, bits uint, v uint32) {
	for b := uint(0); b < bits; b++ {
		p := uint(i)*bits + b
		data[p/8] &^= 1 << (p % 8)
		data[p/8] |= byte(v>>b&1) << (p % 8)
	}
}

// checkPalLens returns the palette lengths TestIndexCheckMatchesScalar
// tries at a width: every one up to 2^bits for widths up to 8, and the
// edges and a few others beyond.
func checkPalLens(r *rand.Rand, bits uint) []int {
	full := 1 << bits
	if bits <= 8 {
		all := make([]int, full)
		for i := range all {
			all[i] = i + 1
		}
		return all
	}
	return []int{1, 2, 3, full/2 - 1, full / 2, full/2 + 1, full - 1, full, 1 + r.Intn(full), 1 + r.Intn(full)}
}

// TestIndexCheckMatchesScalar holds the word-at-a-time index check to its
// scalar form at every width and palette length, on a layer of indices in
// range and then with one index out of range at each of the layer's 256
// positions — the last group too, which has fewer than 8 bytes after it,
// since the layer ends the slice — and on runs of random layers.
func TestIndexCheckMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	check := func(data []byte, bits uint, palLen int, what string) {
		t.Helper()
		got, want := checkIndices(data, bits, palLen), oracleCheckIndices(data, bits, palLen)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("bits=%d palLen=%d %s: check says %v, scalar says %v", bits, palLen, what, got, want)
		}
	}
	for bits := uint(1); bits <= 16; bits++ {
		full := 1 << bits
		for _, palLen := range checkPalLens(r, bits) {
			layer := make([]byte, packedLen(1, bits))
			for i := range layerBlocks {
				putIndex(layer, i, bits, uint32(r.Intn(palLen)))
			}
			check(layer, bits, palLen, "in range")
			if palLen == full {
				continue // no index is out of range
			}
			for i := range layerBlocks {
				was := readBits(layer, uint(i)*bits, bits)
				bad := palLen + i%(full-palLen) // palLen itself, and past it
				putIndex(layer, i, bits, uint32(bad))
				check(layer, bits, palLen, fmt.Sprintf("index %d = %d", i, bad))
				putIndex(layer, i, bits, was)
			}
		}
		// Several layers, a few indices out of range anywhere in them.
		for range 50 {
			palLen := 1 + r.Intn(full)
			n := 1 + r.Intn(4)
			data := make([]byte, packedLen(n, bits))
			for i := range n * layerBlocks {
				v := r.Intn(palLen)
				if r.Intn(n*layerBlocks) < 2 {
					v = r.Intn(full)
				}
				putIndex(data, i, bits, uint32(v))
			}
			check(data, bits, palLen, fmt.Sprintf("%d random layers", n))
		}
	}
}
