package world

// World is the in-memory view of the (virtually infinite) game world: the
// set of currently loaded chunks. Loading, generation, and persistence
// policy live above this type (internal/mve and internal/servo); World only
// provides storage and block addressing across chunk boundaries.
//
// Every loaded chunk holds a slot: a small dense index, unique among the
// loaded chunks, that callers may key their own per-chunk state by (a
// bitset instead of a map). A chunk keeps its slot while it stays loaded,
// replacing it at the same position included; RemoveChunk frees the slot
// and the next AddChunk of a new position reuses the most recently freed
// one, so slots stay below the peak loaded count. A caller keying state by
// slot must drop that state when it removes the chunk.
type World struct {
	chunks ChunkMap[ChunkPos, loaded]
	free   []int
	slots  int
}

// loaded is a loaded chunk and its slot.
type loaded struct {
	c    *Chunk
	slot int
}

// New returns an empty world.
func New() *World {
	return &World{}
}

// Chunk returns the loaded chunk at pos, or nil if not loaded.
func (w *World) Chunk(pos ChunkPos) *Chunk {
	e, _ := w.chunks.Get(pos)
	return e.c
}

// AddChunk inserts (or replaces) a chunk.
func (w *World) AddChunk(c *Chunk) {
	e, ok := w.chunks.Get(c.Pos)
	if !ok {
		if n := len(w.free); n > 0 {
			e.slot = w.free[n-1]
			w.free = w.free[:n-1]
		} else {
			e.slot = w.slots
			w.slots++
		}
	}
	e.c = c
	w.chunks.Put(c.Pos, e)
}

// RemoveChunk unloads the chunk at pos and returns it (nil if not loaded),
// freeing its slot.
func (w *World) RemoveChunk(pos ChunkPos) *Chunk {
	e, ok := w.chunks.Delete(pos)
	if !ok {
		return nil
	}
	w.free = append(w.free, e.slot)
	return e.c
}

// Loaded reports whether the chunk at pos is in memory.
func (w *World) Loaded(pos ChunkPos) bool {
	_, ok := w.chunks.Get(pos)
	return ok
}

// Slot returns the slot of the loaded chunk at pos, or -1 if it is not
// loaded.
func (w *World) Slot(pos ChunkPos) int {
	if e, ok := w.chunks.Get(pos); ok {
		return e.slot
	}
	return -1
}

// LoadedCount returns the number of chunks currently in memory.
func (w *World) LoadedCount() int { return w.chunks.Len() }

// LoadedChunks returns the positions of all loaded chunks, in the chunk
// table's order: deterministic, but not (X, Z) order — a caller whose
// output depends on the order sorts.
func (w *World) LoadedChunks() []ChunkPos {
	return w.LoadedChunksAppend(make([]ChunkPos, 0, w.chunks.Len()))
}

// LoadedChunksAppend appends the positions of all loaded chunks to dst, in
// LoadedChunks' order, and returns it; reusing dst across calls makes the
// enumeration allocation-free.
func (w *World) LoadedChunksAppend(dst []ChunkPos) []ChunkPos {
	for p := range w.chunks.All() {
		dst = append(dst, p)
	}
	return dst
}

// SetBlockAt writes the block at an absolute position. It reports whether
// the containing chunk was loaded (and hence whether the write happened).
func (w *World) SetBlockAt(p BlockPos, b Block) bool {
	c := w.Chunk(p.Chunk())
	if c == nil {
		return false
	}
	c.Set(floorMod(p.X, ChunkSizeX), p.Y, floorMod(p.Z, ChunkSizeZ), b)
	return true
}

// SurfaceY returns the height of the terrain surface at (x, z), or -1 if
// the chunk is not loaded or the column is empty.
func (w *World) SurfaceY(x, z int) int {
	p := BlockPos{X: x, Z: z}
	c := w.Chunk(p.Chunk())
	if c == nil {
		return -1
	}
	return c.SurfaceY(floorMod(x, ChunkSizeX), floorMod(z, ChunkSizeZ))
}
