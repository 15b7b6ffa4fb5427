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
// blocks — straight from its terrain function through world.AppendLayout,
// without building layers of blocks: the FaaS handler returns those bytes
// as its reply, and Generate seals a chunk with them, so a locally
// generated chunk decodes only once a block of it is read. The tests keep
// the column-major generators, one Set per block, as the oracle the bytes
// are held to.
package terrain

import (
	"math"

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
	var fill [world.ChunkSizeY]world.BlockID // Air above the surface
	fill[0] = world.Bedrock
	for y := 1; y < FlatSurfaceY; y++ {
		fill[y] = world.Dirt
	}
	fill[FlatSurfaceY] = world.Grass
	return world.AppendLayout(dst, pos, &fill, 0, nil)
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

// bandRows is how many layers of block rows AppendEncoded keeps on the
// stack. Only the band [minH − dirtDepth, maxH] can mix block types, and a
// chunk's heights lie within 20 of each other on every chunk sampled
// (400 000, random seeds and positions; the noise's slope bounds the
// spread by 42). A taller band gets its rows from the heap.
const bandRows = 32

// AppendEncoded implements Generator. A column is bedrock, stone up to its
// height h, a surface block at h (over dirtDepth blocks of dirt when it is
// grass or sand) and water from there up to sea level. The heights come
// from heightmap, a chunk at a time, and they alone fix the layout: every
// layer below minH − dirtDepth is stone, every layer above maxH water up to
// sea level and air past it, and only the band between is written a block
// at a time, as rows of block IDs; world.AppendLayout finds the palette.
func (g Default) AppendEncoded(dst []byte, pos world.ChunkPos) []byte {
	var band [bandRows]world.IDRow
	return g.appendEncoded(dst, pos, band[:])
}

// appendEncoded is AppendEncoded with the band's rows in scratch, or on
// the heap when the band is taller.
func (g Default) appendEncoded(dst []byte, pos world.ChunkPos, scratch []world.IDRow) []byte {
	var heights [chunkColumns]int // indexed (z, x), as a layer is
	g.heightmap(&heights, pos.Origin())
	minH, maxH := world.ChunkSizeY, 0
	for _, h := range &heights {
		minH, maxH = min(minH, h), max(maxH, h)
	}
	lo := max(1, minH-dirtDepth)
	rows := scratch
	if n := maxH - lo + 1; n > len(rows) {
		rows = make([]world.IDRow, n)
	} else {
		rows = rows[:n]
	}
	writeBand(rows, lo, &heights)

	var fill [world.ChunkSizeY]world.BlockID // Air past sea level
	fill[0] = world.Bedrock
	for y := 1; y < lo; y++ {
		fill[y] = world.Stone
	}
	for y := maxH + 1; y <= seaLevel; y++ {
		fill[y] = world.Water
	}
	return world.AppendLayout(dst, pos, &fill, lo, rows)
}

// writeBand sets rows[i] to the block IDs of layer lo+i of the chunk with
// these column heights. A column's block at layer y follows from
// d = y − h clamped to [−4, 1]: stone, then the three layers under the
// surface (dirt under grass and sand, stone under gravel and snow), the
// surface, then above it water up to sea level and air past it. tab holds
// a row of these six per surface kind, and each layer sets the sixth, so
// the inner loop has no branch.
func writeBand(rows []world.IDRow, lo int, heights *[chunkColumns]int) {
	const rowLen = 8
	var tab [len(surfaceBlocks) * rowLen]uint8
	for k, s := range surfaceBlocks {
		under := world.Stone
		if k == sand || k == grass {
			under = world.Dirt
		}
		copy(tab[rowLen*k:], []uint8{uint8(world.Stone), uint8(under), uint8(under), uint8(under), uint8(s)})
	}
	var rowOf [chunkColumns]uint8 // each column's row of tab
	for col, h := range heights {
		rowOf[col] = uint8(rowLen * surfaceKind(h))
	}
	for i := range rows {
		y := lo + i
		above := uint8(world.Air)
		if y <= seaLevel {
			above = uint8(world.Water)
		}
		for k := range surfaceBlocks {
			tab[rowLen*k+5] = above
		}
		row := &rows[i]
		for col, h := range heights {
			d := y - h + dirtDepth + 1
			d &^= d >> 63 // max(d, 0)
			d -= 5        // min(d, 5) − 5
			d &= d >> 63
			row[col] = tab[uint(int(rowOf[col])+d+5)%uint(len(tab))]
		}
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
// lattice corners the chunk touches once, and each column's lattice cell
// and weight are worked out once per X and once per Z. The arithmetic is
// the per-column evaluation's, expression for expression and in the same
// order, so every height is bit-identical to it.
func (g Default) heightmap(hm *[chunkColumns]int, origin world.BlockPos) {
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
		for z := 0; z < world.ChunkSizeZ; z++ {
			b := cz[z]
			for x := 0; x < world.ChunkSizeX; x++ {
				a := cx[x]
				v00, v10 := corner[a][b], corner[a+1][b]
				v01, v11 := corner[a][b+1], corner[a+1][b+1]
				top := v00 + (v10-v00)*sx[x]
				bot := v01 + (v11-v01)*sx[x]
				sum[z*world.ChunkSizeX+x] += oct.amp * (top + (bot-top)*sz[z])
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
		hm[i] = int(h)
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
