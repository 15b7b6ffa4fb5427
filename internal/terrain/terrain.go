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

// GenerateInto implements Generator. A column is bedrock, stone up to its
// height h, a surface block at h (over dirtDepth blocks of dirt when it is
// grass or sand) and water from there up to sea level. The chunk is
// written a Y-layer at a time, because that is how world.Chunk stores it:
// every layer more than dirtDepth below the lowest column is stone and
// every layer above the highest column and the sea is air, each said once,
// and only the band between — a dozen layers or so — is composed block by
// block.
func (g Default) GenerateInto(c *world.Chunk, pos world.ChunkPos) {
	c.Reset(pos)
	const columns = world.ChunkSizeX * world.ChunkSizeZ
	var heights [columns]int            // indexed (z, x), as a layer is
	var surfaces [columns]world.BlockID // the block at each column's height
	origin := pos.Origin()
	minH, maxH := world.ChunkSizeY, 0
	for z := 0; z < world.ChunkSizeZ; z++ {
		for x := 0; x < world.ChunkSizeX; x++ {
			h := g.heightAt(origin.X+x, origin.Z+z)
			heights[z*world.ChunkSizeX+x] = h
			surfaces[z*world.ChunkSizeX+x] = surfaceAt(h)
			minH, maxH = min(minH, h), max(maxH, h)
		}
	}

	c.FillLayer(0, world.Block{ID: world.Bedrock})
	y := 1
	for ; y < minH-dirtDepth; y++ {
		c.FillLayer(y, world.Block{ID: world.Stone})
	}
	var layer [columns]world.Block
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

// heightAt computes the terrain height via three noise octaves.
func (g Default) heightAt(x, z int) int {
	h := float64(baseHeight)
	h += 28 * g.noise(float64(x)/173.0, float64(z)/173.0, 0)
	h += 12 * g.noise(float64(x)/59.0, float64(z)/59.0, 1)
	h += 4 * g.noise(float64(x)/17.0, float64(z)/17.0, 2)
	if h < 1 {
		h = 1
	}
	if h > world.ChunkSizeY-2 {
		h = world.ChunkSizeY - 2
	}
	return int(h)
}

// noise is smooth 2D value noise in [-1, 1]: hash lattice values with
// smoothstep bilinear interpolation.
func (g Default) noise(x, z float64, octave int64) float64 {
	x0, z0 := math.Floor(x), math.Floor(z)
	fx, fz := x-x0, z-z0
	ix, iz := int64(x0), int64(z0)
	v00 := g.lattice(ix, iz, octave)
	v10 := g.lattice(ix+1, iz, octave)
	v01 := g.lattice(ix, iz+1, octave)
	v11 := g.lattice(ix+1, iz+1, octave)
	sx, sz := smoothstep(fx), smoothstep(fz)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sz
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
// Unknown names fall back to the default generator.
func ForWorldType(name string, seed int64) Generator {
	if name == "flat" {
		return Flat{}
	}
	return Default{Seed: seed}
}
