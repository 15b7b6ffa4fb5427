package terrain

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"servo/internal/world"
)

func TestFlatChunkShape(t *testing.T) {
	c := Flat{}.Generate(world.ChunkPos{X: 3, Z: -7})
	if c.Pos != (world.ChunkPos{X: 3, Z: -7}) {
		t.Fatalf("chunk pos = %v", c.Pos)
	}
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			if c.At(x, 0, z).ID != world.Bedrock {
				t.Fatalf("(%d,0,%d) = %v, want bedrock", x, z, c.At(x, 0, z))
			}
			if c.At(x, FlatSurfaceY, z).ID != world.Grass {
				t.Fatalf("surface at (%d,%d) = %v, want grass", x, z, c.At(x, FlatSurfaceY, z))
			}
			if got := c.SurfaceY(x, z); got != FlatSurfaceY {
				t.Fatalf("SurfaceY(%d,%d) = %d, want %d", x, z, got, FlatSurfaceY)
			}
			if c.At(x, FlatSurfaceY+1, z).ID != world.Air {
				t.Fatal("block above surface must be air")
			}
		}
	}
}

func TestDefaultDeterministic(t *testing.T) {
	g1 := Default{Seed: 42}
	g2 := Default{Seed: 42}
	for _, pos := range []world.ChunkPos{{X: 0, Z: 0}, {X: -5, Z: 9}, {X: 100, Z: -100}} {
		a, b := g1.Generate(pos), g2.Generate(pos)
		if !a.Equal(b) {
			t.Fatalf("same seed produced different chunks at %v", pos)
		}
	}
}

func TestDefaultSeedSensitivity(t *testing.T) {
	a := Default{Seed: 1}.Generate(world.ChunkPos{})
	b := Default{Seed: 2}.Generate(world.ChunkPos{})
	if a.Equal(b) {
		t.Fatal("different seeds produced identical chunks")
	}
}

func TestDefaultChunkWellFormed(t *testing.T) {
	c := Default{Seed: 7}.Generate(world.ChunkPos{X: 2, Z: 2})
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			if c.At(x, 0, z).ID != world.Bedrock {
				t.Fatal("bottom layer must be bedrock")
			}
			h := -1
			for y := world.ChunkSizeY - 1; y >= 0; y-- {
				if c.At(x, y, z).ID.Solid() {
					h = y
					break
				}
			}
			if h < 1 || h >= world.ChunkSizeY-1 {
				t.Fatalf("column (%d,%d) surface %d out of range", x, z, h)
			}
			// No floating air pockets below the surface except water columns.
			for y := 1; y < h; y++ {
				if c.At(x, y, z).ID == world.Air {
					t.Fatalf("air pocket below surface at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

func TestDefaultHeightContinuityAcrossChunkBorder(t *testing.T) {
	// Height fields must be continuous across chunk boundaries: adjacent
	// columns generated in different chunks differ by a bounded step.
	g := Default{Seed: 99}
	a := g.Generate(world.ChunkPos{X: 0, Z: 0})
	b := g.Generate(world.ChunkPos{X: 1, Z: 0})
	for z := 0; z < world.ChunkSizeZ; z++ {
		ha := a.SurfaceY(world.ChunkSizeX-1, z)
		hb := b.SurfaceY(0, z)
		diff := ha - hb
		if diff < 0 {
			diff = -diff
		}
		if diff > 8 {
			t.Fatalf("height discontinuity %d at border z=%d (%d vs %d)", diff, z, ha, hb)
		}
	}
}

func TestDefaultHasWaterAndVariedSurface(t *testing.T) {
	g := Default{Seed: 3}
	water, surfaces := 0, map[world.BlockID]int{}
	for cx := -6; cx < 6; cx++ {
		for cz := -6; cz < 6; cz++ {
			c := g.Generate(world.ChunkPos{X: cx, Z: cz})
			for x := 0; x < world.ChunkSizeX; x += 4 {
				for z := 0; z < world.ChunkSizeZ; z += 4 {
					if c.At(x, seaLevel, z).ID == world.Water {
						water++
					}
					if h := c.SurfaceY(x, z); h > 0 {
						surfaces[c.At(x, h, z).ID]++
					}
				}
			}
		}
	}
	if water == 0 {
		t.Error("default terrain generated no water anywhere in 144 chunks")
	}
	if len(surfaces) < 2 {
		t.Errorf("default terrain has uniform surface %v, want varied biomes", surfaces)
	}
}

func TestNoiseBounded(t *testing.T) {
	g := Default{Seed: 5}
	f := func(x, z int16, oct uint8) bool {
		v := g.noise(float64(x)/7.3, float64(z)/11.9, int64(oct))
		return v >= -1.001 && v <= 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkUnitsOrdering(t *testing.T) {
	pos := world.ChunkPos{X: 2, Z: -3}
	flat, def := Flat{}.Generate(pos).GenWork, Default{}.Generate(pos).GenWork
	if flat >= def {
		t.Fatal("flat world must be cheaper to generate than default")
	}
	if flat <= 0 {
		t.Fatal("work units must be positive")
	}
	if def != (Default{}).WorkUnits() {
		t.Fatalf("a default chunk carries %d work units, WorkUnits says %d", def, (Default{}).WorkUnits())
	}
}

func TestForWorldType(t *testing.T) {
	if g := ForWorldType("flat", 1); g != (Flat{}) {
		t.Fatalf("ForWorldType(flat) = %#v", g)
	}
	if g := ForWorldType("default", 1); g != (Default{Seed: 1}) {
		t.Fatalf("ForWorldType(default) = %#v", g)
	}
	if g := ForWorldType("unknown", 1); g != (Default{Seed: 1}) {
		t.Fatalf("unknown world type must fall back to default, got %#v", g)
	}
}

func TestGeneratedChunkEncodesRoundTrip(t *testing.T) {
	// Generated chunks must survive the persistence encoding: this is the
	// path Servo uses to ship function-generated terrain back to the
	// server.
	for _, g := range []Generator{Flat{}, Default{Seed: 11}} {
		c := g.Generate(world.ChunkPos{X: 1, Z: 1})
		dec, err := world.DecodeChunk(c.Encode())
		if err != nil {
			t.Fatalf("%T: decode: %v", g, err)
		}
		if !dec.Equal(c) {
			t.Fatalf("%T: encode/decode changed the chunk", g)
		}
	}
}

// The column-major generators the product shipped until chunks became
// layered, kept verbatim as the reference GenerateInto is held to: one Set
// per block, no knowledge of layers, and every column's height computed on
// its own by heightAt, which hashes the four lattice corners around it in
// each octave.

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

func oracleFlatGenerate(pos world.ChunkPos) *world.Chunk {
	c := world.NewChunk(pos)
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			c.Set(x, 0, z, world.Block{ID: world.Bedrock})
			for y := 1; y < FlatSurfaceY; y++ {
				c.Set(x, y, z, world.Block{ID: world.Dirt})
			}
			c.Set(x, FlatSurfaceY, z, world.Block{ID: world.Grass})
		}
	}
	c.GenWork = flatWorkUnits
	return c
}

func oracleDefaultGenerate(g Default, pos world.ChunkPos) *world.Chunk {
	c := world.NewChunk(pos)
	origin := pos.Origin()
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			wx, wz := origin.X+x, origin.Z+z
			h := g.heightAt(wx, wz)
			c.Set(x, 0, z, world.Block{ID: world.Bedrock})
			for y := 1; y <= h && y < world.ChunkSizeY; y++ {
				c.Set(x, y, z, world.Block{ID: world.Stone})
			}
			oracleDecorateColumn(c, x, z, h)
			for y := h + 1; y <= seaLevel; y++ {
				c.Set(x, y, z, world.Block{ID: world.Water})
			}
		}
	}
	c.GenWork = defaultWorkUnits
	return c
}

// oracleDecorateColumn replaces the top of a stone column with biome surface
// material.
func oracleDecorateColumn(c *world.Chunk, x, z, h int) {
	if h <= 0 || h >= world.ChunkSizeY {
		return
	}
	var surface world.BlockID
	switch {
	case h < seaLevel+2:
		surface = world.Sand
	case h > baseHeight+40:
		surface = world.Snow
	case h > baseHeight+24:
		surface = world.Gravel
	default:
		surface = world.Grass
	}
	c.Set(x, h, z, world.Block{ID: surface})
	if surface == world.Grass || surface == world.Sand {
		for y := h - 1; y > h-4 && y > 0; y-- {
			c.Set(x, y, z, world.Block{ID: world.Dirt})
		}
	}
}

// TestGeneratorsMatchColumnMajorOracle holds the layer-by-layer generators
// to the per-block ones they replaced: Equal and byte-identical encodings
// over four seeds × 2 500 positions (near the origin, far out, and on both
// sides of every axis), generated alternately into a fresh chunk and into
// one scratch chunk that last held different — often taller — terrain.
func TestGeneratorsMatchColumnMajorOracle(t *testing.T) {
	positions := make([]world.ChunkPos, 0, 2500)
	for x := -20; x < 20; x++ {
		for z := -20; z < 20; z++ {
			positions = append(positions, world.ChunkPos{X: x, Z: z})
		}
	}
	r := rand.New(rand.NewSource(1))
	for len(positions) < cap(positions) {
		positions = append(positions, world.ChunkPos{X: r.Intn(200001) - 100000, Z: r.Intn(200001) - 100000})
	}
	r.Shuffle(len(positions), func(i, j int) { positions[i], positions[j] = positions[j], positions[i] })

	scratch := new(world.Chunk)
	check := func(name string, gen Generator, want *world.Chunk, i int) {
		got := scratch
		if i%2 == 0 {
			got = gen.Generate(want.Pos)
		} else {
			gen.GenerateInto(scratch, want.Pos)
		}
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("%s %v: chunk differs from the column-major generator's", name, want.Pos)
		}
		if !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("%s %v: encoding differs from the column-major generator's", name, want.Pos)
		}
		if got.GenWork != want.GenWork || got.Pos != want.Pos {
			t.Fatalf("%s %v: pos %v genwork %d, want genwork %d", name, want.Pos, got.Pos, got.GenWork, want.GenWork)
		}
	}
	for _, seed := range []int64{0, 1, 42, 7777} {
		g := Default{Seed: seed}
		for i, pos := range positions {
			check("default", g, oracleDefaultGenerate(g, pos), i)
			if seed == 0 && i%50 == 0 {
				// Flat terrain into the scratch chunk a default chunk just left.
				check("flat", Flat{}, oracleFlatGenerate(pos), 1)
			}
		}
	}
}

// TestOctavesWiderThanChunk pins the assumption heightmap's 3×3 corner
// table rests on: an octave no wider than a chunk would put its columns in
// three or more lattice cells along an axis.
func TestOctavesWiderThanChunk(t *testing.T) {
	for i, oct := range octaves {
		if oct.scale <= world.ChunkSizeX || oct.scale <= world.ChunkSizeZ {
			t.Errorf("octave %d: scale %v is not wider than a %d×%d chunk", i, oct.scale, world.ChunkSizeX, world.ChunkSizeZ)
		}
	}
}

// FuzzHeightmap holds the per-chunk heightmap to the per-column heightAt
// on every column of a fuzzed chunk. The seeds cover the origin, negative
// chunks (where floor rounds away from zero), chunks straddling a lattice
// line of each octave on either side of zero, and chunks near ±2²⁷, whose
// origins near the int32 range the codec stores.
func FuzzHeightmap(f *testing.F) {
	f.Add(int64(0), int32(0), int32(0))
	f.Add(int64(1), int32(-1), int32(-1))
	f.Add(int64(42), int32(-7), int32(3))
	for _, scale := range []int32{17, 59, 173} {
		// The chunk holding world X (then Z) = ±scale.
		f.Add(int64(7), scale/world.ChunkSizeX, int32(0))
		f.Add(int64(7), int32(0), scale/world.ChunkSizeZ)
		f.Add(int64(7), -scale/world.ChunkSizeX-1, -scale/world.ChunkSizeZ-1)
	}
	f.Add(int64(-3), int32(1<<27-1), int32(-(1 << 27)))
	f.Add(int64(9), int32(-(1 << 27)), int32(1<<27-1))
	f.Add(int64(math.MinInt64), int32(math.MaxInt32), int32(math.MinInt32))
	f.Fuzz(func(t *testing.T, seed int64, cx, cz int32) {
		g := Default{Seed: seed}
		origin := world.ChunkPos{X: int(cx), Z: int(cz)}.Origin()
		var hm [chunkColumns]int
		g.heightmap(&hm, origin)
		for z := 0; z < world.ChunkSizeZ; z++ {
			for x := 0; x < world.ChunkSizeX; x++ {
				if got, want := hm[z*world.ChunkSizeX+x], g.heightAt(origin.X+x, origin.Z+z); got != want {
					t.Fatalf("seed %d chunk (%d, %d) column (%d, %d): height %d, heightAt %d", seed, cx, cz, x, z, got, want)
				}
			}
		}
	})
}
