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
package terrain

import (
	"math"

	"servo/internal/world"
)

// Generator produces chunks deterministically from their position.
type Generator interface {
	// Generate builds the chunk at pos.
	Generate(pos world.ChunkPos) *world.Chunk
	// GenerateInto builds the chunk at pos in c, whatever c held before;
	// a caller that only needs the chunk until its next call (the FaaS
	// handler, which encodes it) reuses one chunk and its layer storage.
	GenerateInto(c *world.Chunk, pos world.ChunkPos)
	// WorkUnits estimates the abstract CPU work of generating one chunk,
	// used by the FaaS execution model and the local-generation cost
	// model. It is constant per generator.
	WorkUnits() int
	// Name identifies the world type ("default", "flat").
	Name() string
}

// Flat generates an infinite plain: bedrock, three layers of dirt, and a
// grass surface at FlatSurfaceY.
type Flat struct{}

// FlatSurfaceY is the Y level of the flat world's surface.
const FlatSurfaceY = 4

var _ Generator = Flat{}

// Generate implements Generator.
func (g Flat) Generate(pos world.ChunkPos) *world.Chunk {
	c := world.NewChunk(pos)
	g.GenerateInto(c, pos)
	return c
}

// GenerateInto implements Generator: five uniform layers.
func (Flat) GenerateInto(c *world.Chunk, pos world.ChunkPos) {
	c.Reset(pos)
	c.FillLayer(0, world.Block{ID: world.Bedrock})
	for y := 1; y < FlatSurfaceY; y++ {
		c.FillLayer(y, world.Block{ID: world.Dirt})
	}
	c.FillLayer(FlatSurfaceY, world.Block{ID: world.Grass})
	c.GenWork = flatWorkUnits
}

// Work-unit constants. One unit ≈ one column of simple block writes; the
// default generator's figure reflects multi-octave noise per column plus
// decoration passes, calibrated so that a default chunk takes ~600 ms of
// single-vCPU FaaS time (Fig. 11 anchor) while a flat chunk is ~50× cheaper.
const (
	flatWorkUnits    = 256
	defaultWorkUnits = 12800
)

// WorkUnits implements Generator.
func (Flat) WorkUnits() int { return flatWorkUnits }

// Name implements Generator.
func (Flat) Name() string { return "flat" }

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
	c := world.NewChunk(pos)
	g.GenerateInto(c, pos)
	return c
}

// dirtDepth is how many blocks of dirt lie under a grass or sand surface.
const dirtDepth = 3

// chunkColumns is the number of columns in a chunk, one per (z, x).
const chunkColumns = world.ChunkSizeX * world.ChunkSizeZ

// GenerateInto implements Generator. A column is bedrock, stone up to its
// height h, a surface block at h (over dirtDepth blocks of dirt when it is
// grass or sand) and water from there up to sea level. The heights come
// from heightmap, a chunk at a time. The chunk is written a Y-layer at a
// time, because that is how world.Chunk stores it: every layer more than
// dirtDepth below the lowest column is stone and every layer above the
// highest column and the sea is air, each said once, and only the band
// between — a dozen layers or so — is composed block by block.
func (g Default) GenerateInto(c *world.Chunk, pos world.ChunkPos) {
	c.Reset(pos)
	var heights [chunkColumns]int            // indexed (z, x), as a layer is
	var surfaces [chunkColumns]world.BlockID // the block at each column's height
	g.heightmap(&heights, pos.Origin())
	minH, maxH := world.ChunkSizeY, 0
	for i, h := range heights {
		surfaces[i] = surfaceAt(h)
		minH, maxH = min(minH, h), max(maxH, h)
	}

	c.FillLayer(0, world.Block{ID: world.Bedrock})
	y := 1
	for ; y < minH-dirtDepth; y++ {
		c.FillLayer(y, world.Block{ID: world.Stone})
	}
	var layer [chunkColumns]world.Block
	for ; y <= max(maxH, seaLevel); y++ {
		for i, h := range heights {
			surface := surfaces[i]
			var id world.BlockID // air above the column and the sea
			switch {
			case y > h:
				if y <= seaLevel {
					id = world.Water
				}
			case y == h:
				id = surface
			case y >= h-dirtDepth && (surface == world.Grass || surface == world.Sand):
				id = world.Dirt
			default:
				id = world.Stone
			}
			layer[i] = world.Block{ID: id}
		}
		c.SetLayer(y, &layer)
	}
	c.GenWork = defaultWorkUnits
}

// surfaceAt picks the biome surface material of a column by its height.
func surfaceAt(h int) world.BlockID {
	switch {
	case h < seaLevel+2:
		return world.Sand
	case h > baseHeight+40:
		return world.Snow
	case h > baseHeight+24:
		return world.Gravel
	default:
		return world.Grass
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

// WorkUnits implements Generator.
func (Default) WorkUnits() int { return defaultWorkUnits }

// Name implements Generator.
func (Default) Name() string { return "default" }

// ForWorldType returns the generator for a Table I world type name.
// Unknown names fall back to the default generator; servo.NewInstance and
// the scenario spec refuse them before they get here.
func ForWorldType(name string, seed int64) Generator {
	if name == "flat" {
		return Flat{}
	}
	return Default{Seed: seed}
}
