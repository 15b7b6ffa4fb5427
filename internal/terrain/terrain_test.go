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
// layered, kept verbatim as the reference AppendEncoded is held to: one Set
// per block, no knowledge of layers or of the encoding, and every column's
// height computed on its own by heightAt, which hashes the four lattice
// corners around it in each octave.

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
	origin := pos.Origin()
	return oracleColumns(pos, func(x, z int) int { return g.heightAt(origin.X+x, origin.Z+z) })
}

// oracleColumns is the column-major default chunk at pos whose column
// (x, z) has height heightOf(x, z).
func oracleColumns(pos world.ChunkPos, heightOf func(x, z int) int) *world.Chunk {
	c := world.NewChunk(pos)
	for x := 0; x < world.ChunkSizeX; x++ {
		for z := 0; z < world.ChunkSizeZ; z++ {
			h := heightOf(x, z)
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

// checkBorn holds a generator's born chunk at want.Pos to want, the
// column-major oracle's: AppendEncoded writes want's EncodeAppend bytes
// (after a prefix it leaves alone), LoadEncoded accepts them, and the
// chunk they open to is Equal to want, as is Generate's, which keeps them
// and carries want's GenWork.
func checkBorn(t *testing.T, name string, gen Generator, want *world.Chunk) {
	t.Helper()
	enc := want.EncodeAppend(nil)
	if got := gen.AppendEncoded(nil, want.Pos); !bytes.Equal(got, enc) {
		t.Fatalf("%s %v: born bytes differ from the column-major chunk's encoding", name, want.Pos)
	}
	prefix := []byte("prefix")
	if got := gen.AppendEncoded(prefix, want.Pos); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], enc) {
		t.Fatalf("%s %v: AppendEncoded after a prefix wrote other bytes", name, want.Pos)
	}
	loaded := world.NewChunk(world.ChunkPos{X: 1 << 20})
	if err := loaded.LoadEncoded(gen.AppendEncoded(nil, want.Pos)); err != nil {
		t.Fatalf("%s %v: LoadEncoded refuses the born bytes: %v", name, want.Pos, err)
	}
	if !loaded.Equal(want) || !want.Equal(loaded) {
		t.Fatalf("%s %v: the born chunk differs from the column-major chunk", name, want.Pos)
	}
	got := gen.Generate(want.Pos)
	if !bytes.Equal(got.Encoded(), enc) {
		t.Fatalf("%s %v: Generate's chunk does not keep the born bytes", name, want.Pos)
	}
	if got.GenWork != want.GenWork || got.Pos != want.Pos || !got.Equal(want) {
		t.Fatalf("%s %v: pos %v genwork %d, want genwork %d", name, want.Pos, got.Pos, got.GenWork, want.GenWork)
	}
}

// TestGeneratorsMatchColumnMajorOracle holds the born generators to the
// per-block ones they replaced over four seeds × 2 500 positions (near
// the origin, far out, and on both sides of every axis).
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
	for _, seed := range []int64{0, 1, 42, 7777} {
		g := Default{Seed: seed}
		for i, pos := range positions {
			want := oracleDefaultGenerate(g, pos)
			checkBorn(t, "default", g, want)
			if i%50 == 0 && seed == 0 {
				checkBorn(t, "flat", Flat{}, oracleFlatGenerate(pos))
			}
		}
	}
}

// FuzzBornChunk holds both generators' born chunks to the column-major
// oracle (checkBorn) at fuzzed seeds and positions, seeded as
// FuzzHeightmap is: the origin, negative chunks, chunks straddling a
// lattice line of each octave, chunks near ±2²⁷ and the int32 extremes the
// codec stores, and the extreme seed.
func FuzzBornChunk(f *testing.F) {
	f.Add(int64(0), int32(0), int32(0))
	f.Add(int64(1), int32(-1), int32(-1))
	f.Add(int64(42), int32(-7), int32(3))
	for _, scale := range []int32{17, 59, 173} {
		f.Add(int64(7), scale/world.ChunkSizeX, int32(0))
		f.Add(int64(7), int32(0), scale/world.ChunkSizeZ)
		f.Add(int64(7), -scale/world.ChunkSizeX-1, -scale/world.ChunkSizeZ-1)
	}
	f.Add(int64(-3), int32(1<<27-1), int32(-(1 << 27)))
	f.Add(int64(9), int32(-(1 << 27)), int32(1<<27-1))
	f.Add(int64(math.MinInt64), int32(math.MaxInt32), int32(math.MinInt32))
	f.Fuzz(func(t *testing.T, seed int64, cx, cz int32) {
		pos := world.ChunkPos{X: int(cx), Z: int(cz)}
		g := Default{Seed: seed}
		checkBorn(t, "default", g, oracleDefaultGenerate(g, pos))
		checkBorn(t, "flat", Flat{}, oracleFlatGenerate(pos))
	})
}

// checkHeights holds appendHeights, the default generator's writer, to
// the column-major oracle chunk with the same column heights.
func checkHeights(t *testing.T, hm *[chunkColumns]uint8) {
	t.Helper()
	pos := world.ChunkPos{X: 3, Z: -5}
	want := oracleColumns(pos, func(x, z int) int { return int(hm[z*world.ChunkSizeX+x]) })
	prefix := []byte("prefix")
	got := appendHeights(prefix, pos, hm)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.EncodeAppend(nil)) {
		t.Fatalf("heights %v: the bytes differ from the column-major chunk's encoding", hm)
	}
}

// syntheticHeights spreads column heights over [1, world.ChunkSizeY−2]:
// column i has height 1 + (base + data[i mod len(data)] mod (spread+1))
// mod 254, or 1 + base if data is empty.
func syntheticHeights(base, spread uint8, data []byte) *[chunkColumns]uint8 {
	var hm [chunkColumns]uint8
	for i := range hm {
		d := 0
		if len(data) > 0 {
			d = int(data[i%len(data)]) % (int(spread) + 1)
		}
		hm[i] = uint8(1 + (int(base)+d)%(world.ChunkSizeY-2))
	}
	return &hm
}

// terrainTableCases are column heights the noise never makes, as
// syntheticHeights arguments: the lowest and highest heights (the band
// clamped at layer 1 or just above it, a surface at 254), one height
// alone, spans wider
// than 32 layers, bands straddling sea level + 1, and bands holding every
// surface kind.
var terrainTableCases = []struct {
	base, spread uint8
	data         []byte
}{
	{0, 0, nil},                       // every column at height 1
	{253, 0, nil},                     // every column at 254
	{70, 0, nil},                      // one height, grass
	{0, 3, []byte{0, 1, 2, 3, 2, 1}},  // the band clamped at layer 1
	{4, 30, []byte{0, 30}},            // one stone layer under the band
	{250, 3, []byte{3, 0, 2, 1}},      // up to 254
	{0, 255, []byte{0, 253, 7, 128}},  // heights 1 to 254
	{40, 60, []byte{0, 60, 30, 45}},   // a span of 60 layers
	{58, 8, []byte{0, 1, 2, 3, 4, 5}}, // around sea level + 1
	{61, 1, []byte{0, 1}},             // sea level + 1 and + 2
	{55, 60, []byte{0, 20, 40, 60}},   // sand, grass, gravel and snow
	{60, 50, []byte{50, 40, 30, 20, 10, 0, 5, 15, 25, 35, 45}},
}

// TestTerrainTablesMatchColumnMajorOracle holds the default generator's
// writer to the column-major oracle on heights the noise never makes:
// terrainTableCases, then random heights at random spreads.
func TestTerrainTablesMatchColumnMajorOracle(t *testing.T) {
	for _, c := range terrainTableCases {
		checkHeights(t, syntheticHeights(c.base, c.spread, c.data))
	}
	r := rand.New(rand.NewSource(58))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+r.Intn(chunkColumns))
		r.Read(data)
		checkHeights(t, syntheticHeights(uint8(r.Intn(256)), uint8(r.Intn(256)), data))
	}
}

// FuzzTerrainTables is TestTerrainTablesMatchColumnMajorOracle's check at
// fuzzed heights, seeded with its cases.
func FuzzTerrainTables(f *testing.F) {
	for _, c := range terrainTableCases {
		f.Add(c.base, c.spread, c.data)
	}
	f.Fuzz(func(t *testing.T, base, spread uint8, data []byte) {
		checkHeights(t, syntheticHeights(base, spread, data))
	})
}

// BenchmarkBornChunk is a drill-down, not a ledger row: a default chunk
// born encoded against the same chunk built block by block and encoded.
func BenchmarkBornChunk(b *testing.B) {
	g := Default{Seed: 1}
	b.Run("born", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			g.AppendEncoded(nil, world.ChunkPos{X: i % 64, Z: i / 64 % 64})
		}
	})
	b.Run("column-major", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			oracleDefaultGenerate(g, world.ChunkPos{X: i % 64, Z: i / 64 % 64}).Encode()
		}
	})
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
		var hm [chunkColumns]uint8
		g.heightmap(&hm, origin)
		for z := 0; z < world.ChunkSizeZ; z++ {
			for x := 0; x < world.ChunkSizeX; x++ {
				if got, want := int(hm[z*world.ChunkSizeX+x]), g.heightAt(origin.X+x, origin.Z+z); got != want {
					t.Fatalf("seed %d chunk (%d, %d) column (%d, %d): height %d, heightAt %d", seed, cx, cz, x, z, got, want)
				}
			}
		}
	})
}
