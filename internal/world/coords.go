package world

import "fmt"

// Chunk dimensions, matching Minecraft and the paper (§IV-D: "an area of
// 16×16×256 blocks").
const (
	ChunkSizeX = 16
	ChunkSizeZ = 16
	ChunkSizeY = 256
)

// BlockPos is an absolute block coordinate in the world. Y is the vertical
// axis, 0 ≤ Y < ChunkSizeY.
type BlockPos struct {
	X, Y, Z int
}

// String implements fmt.Stringer.
func (p BlockPos) String() string { return fmt.Sprintf("(%d,%d,%d)", p.X, p.Y, p.Z) }

// Chunk returns the position of the chunk containing this block.
func (p BlockPos) Chunk() ChunkPos {
	return ChunkPos{X: floorDiv(p.X, ChunkSizeX), Z: floorDiv(p.Z, ChunkSizeZ)}
}

// Offset translates the position by (dx, dy, dz).
func (p BlockPos) Offset(dx, dy, dz int) BlockPos {
	return BlockPos{X: p.X + dx, Y: p.Y + dy, Z: p.Z + dz}
}

// ChunkPos addresses one chunk column on the infinite 2D chunk grid.
type ChunkPos struct {
	X, Z int
}

// String implements fmt.Stringer.
func (p ChunkPos) String() string { return fmt.Sprintf("chunk(%d,%d)", p.X, p.Z) }

// Origin returns the world position of the chunk's (0, 0, 0) corner.
func (p ChunkPos) Origin() BlockPos {
	return BlockPos{X: p.X * ChunkSizeX, Y: 0, Z: p.Z * ChunkSizeZ}
}

// DistanceBlocks returns the Chebyshev distance in blocks between the
// nearest edges of this chunk and the given block position, the metric used
// for view-distance checks ("is any part of this chunk within R blocks?").
func (p ChunkPos) DistanceBlocks(b BlockPos) int {
	ox, oz := p.X*ChunkSizeX, p.Z*ChunkSizeZ
	dx := axisDistance(b.X, ox, ox+ChunkSizeX-1)
	dz := axisDistance(b.Z, oz, oz+ChunkSizeZ-1)
	if dx > dz {
		return dx
	}
	return dz
}

func axisDistance(v, lo, hi int) int {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// ChunkRect is an inclusive axis-aligned rectangle of chunk positions,
// the shape every view-distance query resolves to. Two positions yield
// the same demand set exactly when their rects are equal, which is what
// makes it usable as an incremental-scan cache key.
type ChunkRect struct {
	Min, Max ChunkPos
}

// ChunkRectWithin returns the rect of every chunk any part of which lies
// within radius blocks (Chebyshev) of center. A negative radius returns
// an empty rect (Min > Max).
func ChunkRectWithin(center BlockPos, radius int) ChunkRect {
	if radius < 0 {
		return ChunkRect{Min: ChunkPos{X: 1}, Max: ChunkPos{X: 0}}
	}
	return ChunkRect{
		Min: BlockPos{X: center.X - radius, Z: center.Z - radius}.Chunk(),
		Max: BlockPos{X: center.X + radius, Z: center.Z + radius}.Chunk(),
	}
}

// Contains reports whether cp lies inside the rect.
func (r ChunkRect) Contains(cp ChunkPos) bool {
	return cp.X >= r.Min.X && cp.X <= r.Max.X && cp.Z >= r.Min.Z && cp.Z <= r.Max.Z
}

// Count returns the number of chunks in the rect.
func (r ChunkRect) Count() int {
	if r.Max.X < r.Min.X || r.Max.Z < r.Min.Z {
		return 0
	}
	return (r.Max.X - r.Min.X + 1) * (r.Max.Z - r.Min.Z + 1)
}

// ChunksWithin returns every chunk position any part of which lies within
// radius blocks (Chebyshev) of center. radius 0 returns just the chunk
// containing center.
func ChunksWithin(center BlockPos, radius int) []ChunkPos {
	if radius < 0 {
		return nil
	}
	return ChunksWithinAppend(make([]ChunkPos, 0, ChunkRectWithin(center, radius).Count()), center, radius)
}

// ChunksWithinAppend appends ChunksWithin(center, radius) to dst and
// returns it, in the same deterministic order (X-major, Z ascending).
// Callers that reuse dst across calls run the query allocation-free.
func ChunksWithinAppend(dst []ChunkPos, center BlockPos, radius int) []ChunkPos {
	r := ChunkRectWithin(center, radius)
	for cx := r.Min.X; cx <= r.Max.X; cx++ {
		for cz := r.Min.Z; cz <= r.Max.Z; cz++ {
			dst = append(dst, ChunkPos{X: cx, Z: cz})
		}
	}
	return dst
}

// floorDiv divides rounding toward negative infinity, so that negative
// block coordinates map to the correct chunk.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// floorMod returns the non-negative remainder of a/b.
func floorMod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
