// Package terrain implements procedural content generation (PCG) for the
// MVE's infinite world (paper §II-A, component 7). Two world types match
// the paper's experiment matrix (Table I):
//
//   - default: layered value-noise terrain with mountains, rivers (water
//     below sea level), beaches, and biome-dependent surface blocks; this
//     is the compute-intensive generator that the terrain-generation
//     experiments (Fig. 10, 11, 12) stress.
//   - flat: an infinite plain, cheap to generate, used for the
//     simulated-construct experiments (Fig. 7, 8, 9) so terrain work does
//     not perturb SC measurements.
//
// Generation is a pure function of (seed, chunk position): the same chunk
// is bit-identical whether generated on the game server or inside a
// serverless function, which is what makes Servo's generation offloading
// transparent (paper §III-D).
//
// A chunk is born in its wire form. A generator writes the canonical
// chunk encoding — the bytes world.Chunk.EncodeAppend would write for its
// blocks — through world.AppendTables, without building layers of blocks:
// it decides the palette and every layer's fill up front, and the default
// generator gives each mixed layer as a table from column height to
// palette index, so no block is written one at a time. The FaaS handler
// returns those bytes as its reply, and Generate seals a chunk with them,
// so a locally generated chunk decodes only once a block of it is read.
// The tests keep the column-major generators, one Set per block, as the
// oracle the bytes are held to.
package terrain

import (
	"math"
	"slices"

	"servo/internal/world"
)

// Generator produces chunks deterministically from their position.
type Generator interface {
	// AppendEncoded appends the encoding of the chunk at pos — the bytes
	// world.Chunk.EncodeAppend writes for its blocks — to dst and returns
	// the extended slice. dst grows at most once, so AppendEncoded(nil,
	// pos) costs one allocation: the FaaS handler's reply.
	AppendEncoded(dst []byte, pos world.ChunkPos) []byte
	// Generate returns the chunk at pos, sealed with its AppendEncoded
	// bytes (it decodes only once a block is read) and carrying WorkUnits
	// as its GenWork.
	Generate(pos world.ChunkPos) *world.Chunk
	// WorkUnits is the abstract CPU work of generating one chunk.
	WorkUnits() int
}

// sealed is every generator's Generate: a chunk sealed with its encoding,
// carrying its work units.
func sealed(enc []byte, work int) *world.Chunk {
	c := new(world.Chunk)
	if err := c.LoadEncoded(enc); err != nil {
		panic("terrain: a generated encoding does not load: " + err.Error())
	}
	c.GenWork = work
	return c
}

// Flat generates an infinite plain: bedrock, three layers of dirt, and a
// grass surface at FlatSurfaceY.
type Flat struct{}

// FlatSurfaceY is the Y level of the flat world's surface.
const FlatSurfaceY = 4

var _ Generator = Flat{}

// Generate implements Generator.
func (g Flat) Generate(pos world.ChunkPos) *world.Chunk {
	return sealed(g.AppendEncoded(nil, pos), g.WorkUnits())
}

// WorkUnits implements Generator.
func (Flat) WorkUnits() int { return flatWorkUnits }

// AppendEncoded implements Generator: every flat chunk has one layout,
// five uniform layers under air.
func (Flat) AppendEncoded(dst []byte, pos world.ChunkPos) []byte {
	pal := [...]world.BlockID{world.Bedrock, world.Dirt, world.Grass, world.Air}
	var layers [world.ChunkSizeY]uint16
	for y := range layers {
		switch {
		case y == 0:
			layers[y] = 0
		case y < FlatSurfaceY:
			layers[y] = 1
		case y == FlatSurfaceY:
			layers[y] = 2
		default:
			layers[y] = 3
		}
	}
	return world.AppendTables(dst, pos, pal[:], &layers, nil, nil)
}

// Work-unit constants. One unit ≈ one column of simple block writes; the
// default generator's figure reflects multi-octave noise per column plus
// decoration passes, calibrated so that a default chunk takes ~600 ms of
// single-vCPU FaaS time (Fig. 11 anchor) while a flat chunk is ~50× cheaper.
const (
	flatWorkUnits    = 256
	defaultWorkUnits = 12800
)

// Default is the natural-terrain generator. It layers three octaves of
// smooth value noise into a heightmap, carves water below sea level, and
// picks surface blocks by height band (beach/grass/stone/snow).
type Default struct {
	Seed int64
}

var _ Generator = Default{}

// Terrain shape constants for the default generator.
const (
	seaLevel   = 62
	baseHeight = 64
)

// Generate implements Generator.
func (g Default) Generate(pos world.ChunkPos) *world.Chunk {
	return sealed(g.AppendEncoded(nil, pos), g.WorkUnits())
}

// WorkUnits is the abstract CPU work of generating one default chunk (the
// GenWork every generated chunk carries).
func (Default) WorkUnits() int { return defaultWorkUnits }

// dirtDepth is how many blocks of dirt lie under a grass or sand surface.
const dirtDepth = 3

// chunkColumns is the number of columns in a chunk, one per (z, x).
const chunkColumns = world.ChunkSizeX * world.ChunkSizeZ

// AppendEncoded implements Generator. A column is bedrock, stone up to its
// height h, a surface block at h (over dirtDepth blocks of dirt when it is
// grass or sand) and water from there up to sea level. The heights come
// from heightmap, a chunk at a time, one byte a column, and
// appendHeights writes the chunk from them.
func (g Default) AppendEncoded(dst []byte, pos world.ChunkPos) []byte {
	var hm [chunkColumns]uint8 // indexed (z, x), as a layer is
	g.heightmap(&hm, pos.Origin())
	return appendHeights(dst, pos, &hm)
}

// appendHeights appends the encoding of the default chunk at pos whose
// columns have heights hm, each in [1, world.ChunkSizeY−2]. A block is a
// function of its layer y and its column's height alone (blockAt), and a
// chunk's 256 columns have only a few dozen heights at most, so the
// palette and every layer's fill are decided from the heights present, and
// the columns are touched only to pack the mixed layers: every layer below
// minH − dirtDepth is stone (bedrock at 0), every layer above maxH water up
// to sea level and air past it, and a layer of the band between is a fill
// if all the heights present give one block. Each mixed layer is a table
// from height to palette index (bandTable), and world.AppendTables looks
// every column's height up in it.
func appendHeights(dst []byte, pos world.ChunkPos, hm *[chunkColumns]uint8) []byte {
	// first[h] is 1 + the first column of height h, 0 if none has it.
	var first [world.ChunkSizeY]uint16
	minH, maxH := world.ChunkSizeY, 0
	for col, h := range hm {
		if first[h] == 0 {
			first[h] = uint16(col + 1)
		}
		minH, maxH = min(minH, int(h)), max(maxH, int(h))
	}
	var presentArr [world.ChunkSizeY]uint8
	present := presentArr[:0] // the heights present, ascending
	for h := minH; h <= maxH; h++ {
		if first[h] != 0 {
			present = append(present, uint8(h))
		}
	}
	lo := max(1, minH-dirtDepth) // the band [lo, maxH] is all that can mix

	// The palette, in order of first appearance at y·chunkColumns + col.
	// A column changes block only at the band's first layer, h − dirtDepth,
	// h, h + 1 and seaLevel + 1, so a block first appears at one of those
	// layers in the first column of some height, or in a fill layer.
	var at [world.Gravel + 1]int // by BlockID, every block terrain makes
	for id := range at {
		at[id] = math.MaxInt
	}
	see := func(id world.BlockID, y, col int) { at[id] = min(at[id], y*chunkColumns+col) }
	see(world.Bedrock, 0, 0)
	if lo > 1 {
		see(world.Stone, 1, 0)
	}
	for _, h := range present {
		h, col := int(h), int(first[h])-1
		for _, y := range [...]int{lo, h - dirtDepth, h, h + 1, seaLevel + 1} {
			if y >= lo && y <= maxH {
				see(blockAt(y, h), y, col)
			}
		}
	}
	if maxH < seaLevel {
		see(world.Water, maxH+1, 0)
	}
	see(world.Air, max(maxH, seaLevel)+1, 0)
	var palArr [len(at)]world.BlockID
	pal := palArr[:0]
	for id, p := range at {
		if p != math.MaxInt {
			pal = append(pal, world.BlockID(id))
		}
	}
	slices.SortFunc(pal, func(a, b world.BlockID) int { return at[a] - at[b] })
	var idx [len(at)]uint8 // palette index by BlockID
	for i, id := range pal {
		idx[id] = uint8(i)
	}

	var layers [world.ChunkSizeY]uint16
	var t [256]uint8
	for y := range layers {
		switch {
		case y == 0:
			layers[y] = uint16(idx[world.Bedrock])
		case y < lo:
			layers[y] = uint16(idx[world.Stone])
		case y <= maxH:
			bandTable(&t, y, minH, maxH, &idx)
			layers[y] = uint16(t[present[0]])
			for _, h := range present[1:] {
				if t[h] != t[present[0]] {
					layers[y] = world.MixedLayer
					break
				}
			}
		case y <= seaLevel:
			layers[y] = uint16(idx[world.Water])
		default:
			layers[y] = uint16(idx[world.Air])
		}
	}
	return world.AppendTables(dst, pos, pal, &layers, hm, func(y int) *[256]uint8 {
		bandTable(&t, y, minH, maxH, &idx)
		return &t
	})
}

// blockAt is the block at layer y ≥ 1 of a column of height h: stone, then
// the dirtDepth layers under the surface (dirt under grass and sand, stone
// under gravel and snow), the surface, then water up to sea level and air
// past it.
func blockAt(y, h int) world.BlockID {
	k := surfaceKind(h)
	switch {
	case y > h && y <= seaLevel:
		return world.Water
	case y > h:
		return world.Air
	case y == h:
		return surfaceBlocks[k]
	case y >= h-dirtDepth && (k == sand || k == grass):
		return world.Dirt
	}
	return world.Stone
}

// bandTable sets t[h], for every height h from minH to maxH, to the
// palette index (idx) of blockAt(y, h), for a layer 1 ≤ y ≤ maxH: the
// heights below y see water or air, y its surface, the dirtDepth heights
// above it what lies under their surface, and the rest stone.
func bandTable(t *[256]uint8, y, minH, maxH int, idx *[world.Gravel + 1]uint8) {
	above := idx[world.Air]
	if y <= seaLevel {
		above = idx[world.Water]
	}
	for h := minH; h < y; h++ {
		t[h] = above
	}
	if y >= minH {
		t[y] = idx[blockAt(y, y)]
	}
	for h := max(y+1, minH); h <= min(y+dirtDepth, maxH); h++ {
		t[h] = idx[blockAt(y, h)]
	}
	for h := max(y+dirtDepth+1, minH); h <= maxH; h++ {
		t[h] = idx[world.Stone]
	}
}

// The surface kinds, indices of surfaceBlocks.
const (
	sand = iota
	snow
	gravel
	grass
)

// surfaceBlocks is the block of each surface kind.
var surfaceBlocks = [...]world.BlockID{sand: world.Sand, snow: world.Snow, gravel: world.Gravel, grass: world.Grass}

// surfaceKind picks the biome surface material of a column by its height.
func surfaceKind(h int) int {
	switch {
	case h < seaLevel+2:
		return sand
	case h > baseHeight+40:
		return snow
	case h > baseHeight+24:
		return gravel
	default:
		return grass
	}
}

// octaves are the default terrain's value-noise octaves: a column's height
// is baseHeight plus amp × noise(x/scale, z/scale) of each, summed in this
// order, with the octave's index salting its lattice. Every scale is wider
// than a chunk (> world.ChunkSizeX and world.ChunkSizeZ columns), so a
// chunk's columns lie in at most two lattice cells per axis and touch at
// most 3×3 lattice corners an octave: heightmap's corner table holds
// exactly that many.
var octaves = [...]struct{ scale, amp float64 }{
	{173, 28},
	{59, 12},
	{17, 4},
}

// heightmap sets hm, indexed (z, x) as a layer is, to the terrain height
// of every column of the chunk whose first column is origin. It is smooth
// 2D value noise — hashed lattice values, smoothstep-weighted bilinear
// interpolation — evaluated a chunk at a time: each octave hashes the
// lattice corners the chunk touches once, each column's lattice cell and
// weight are worked out once per X and once per Z, and the interpolants
// along X once per X and lattice cell in Z. The arithmetic is the
// per-column evaluation's, expression for expression and in the same
// order, so every height is bit-identical to it.
func (g Default) heightmap(hm *[chunkColumns]uint8, origin world.BlockPos) {
	var sum [chunkColumns]float64
	for i := range sum {
		sum[i] = baseHeight
	}
	for o, oct := range octaves {
		// Each column's lattice cell, as an offset from the first
		// column's, and its smoothstep weight within the cell.
		var cx, cz [world.ChunkSizeX]int
		var sx, sz [world.ChunkSizeX]float64
		ix0 := cell(origin.X, oct.scale, &cx, &sx)
		iz0 := cell(origin.Z, oct.scale, &cz, &sz)
		var corner [3][3]float64 // [x][z] from (ix0, iz0)
		for a := 0; a <= cx[world.ChunkSizeX-1]+1; a++ {
			for b := 0; b <= cz[world.ChunkSizeZ-1]+1; b++ {
				corner[a][b] = g.lattice(ix0+int64(a), iz0+int64(b), int64(o))
			}
		}
		// The interpolants along X, top and bot − top, once per X and
		// lattice cell in Z: a chunk's columns lie in at most two.
		var top, slope [2][world.ChunkSizeX]float64
		for b := 0; b <= cz[world.ChunkSizeZ-1]; b++ {
			for x, a := range cx {
				v00, v10 := corner[a][b], corner[a+1][b]
				v01, v11 := corner[a][b+1], corner[a+1][b+1]
				t := v00 + (v10-v00)*sx[x]
				bot := v01 + (v11-v01)*sx[x]
				top[b][x], slope[b][x] = t, bot-t
			}
		}
		for z := 0; z < world.ChunkSizeZ; z++ {
			top, slope, row := &top[cz[z]], &slope[cz[z]], sum[z*world.ChunkSizeX:][:world.ChunkSizeX]
			for x := range row {
				row[x] += oct.amp * (top[x] + slope[x]*sz[z])
			}
		}
	}
	for i, h := range sum {
		if h < 1 {
			h = 1
		}
		if h > world.ChunkSizeY-2 {
			h = world.ChunkSizeY - 2
		}
		hm[i] = uint8(h)
	}
}

// cell returns the lattice coordinate of world coordinate w0 at the given
// scale, and for each of the chunk's columns w0+i along one axis (a chunk
// is as wide in Z as in X) sets off[i] to its lattice coordinate as an
// offset from w0's and s[i] to its smoothstep weight within that cell.
func cell(w0 int, scale float64, off *[world.ChunkSizeX]int, s *[world.ChunkSizeX]float64) int64 {
	i0 := int64(math.Floor(float64(w0) / scale))
	for i := range off {
		v := float64(w0+i) / scale
		f := math.Floor(v)
		off[i] = int(int64(f) - i0)
		s[i] = smoothstep(v - f)
	}
	return i0
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// lattice returns a deterministic pseudo-random value in [-1, 1] for an
// integer lattice point, derived from the seed with an avalanche mixer
// (splitmix64 finalizer).
func (g Default) lattice(x, z, octave int64) float64 {
	h := uint64(g.Seed) ^ 0x9e3779b97f4a7c15
	h = mix64(h ^ uint64(x)*0xbf58476d1ce4e5b9)
	h = mix64(h ^ uint64(z)*0x94d049bb133111eb)
	h = mix64(h ^ uint64(octave)*0xd6e8feb86659fd93)
	return float64(int64(h>>11))/float64(1<<52) - 1 // [-1, 1)
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ForWorldType returns the generator for a Table I world type name.
// Unknown names fall back to the default generator; servo.NewInstance and
// the scenario spec refuse them before they get here.
func ForWorldType(name string, seed int64) Generator {
	if name == "flat" {
		return Flat{}
	}
	return Default{Seed: seed}
}
