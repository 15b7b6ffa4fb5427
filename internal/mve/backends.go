package mve

import (
	"time"

	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// SCBackend simulates the instance's active simulated constructs. The
// baselines use LocalSC; Servo plugs in the speculative execution unit
// (internal/servo/specexec adapted in internal/core).
type SCBackend interface {
	// Add activates a construct and returns its id.
	Add(c *sc.Construct) uint64
	// Remove deactivates a construct.
	Remove(id uint64)
	// Modify applies a player modification (invalidating any speculative
	// state). It reports whether the construct exists.
	Modify(id uint64, mutate func(*sc.Construct)) bool
	// Tick advances all constructs by one game tick and returns the
	// work units executed on the game loop.
	Tick(tick uint64) SCTickWork
	// Count returns the number of active constructs.
	Count() int
}

// SCTickWork reports one tick of SC simulation.
type SCTickWork struct {
	WorkUnits    int // units executed on the game loop
	LocalSteps   int
	AppliedSteps int // speculative states applied (Servo only)
	Simulated    bool
}

// LocalSC is the baselines' construct backend: every construct is stepped
// on the game loop. Matching the paper's observation about both baselines,
// constructs are stepped every other tick when everyOther is set.
type LocalSC struct {
	everyOther bool
	constructs map[uint64]*sc.Construct
	nextID     uint64
}

var _ SCBackend = (*LocalSC)(nil)

// NewLocalSC returns a local construct backend.
func NewLocalSC(everyOther bool) *LocalSC {
	return &LocalSC{everyOther: everyOther, constructs: make(map[uint64]*sc.Construct)}
}

// Add implements SCBackend.
func (l *LocalSC) Add(c *sc.Construct) uint64 {
	l.nextID++
	l.constructs[l.nextID] = c
	return l.nextID
}

// Remove implements SCBackend.
func (l *LocalSC) Remove(id uint64) { delete(l.constructs, id) }

// Modify implements SCBackend.
func (l *LocalSC) Modify(id uint64, mutate func(*sc.Construct)) bool {
	c, ok := l.constructs[id]
	if !ok {
		return false
	}
	mutate(c)
	return true
}

// Tick implements SCBackend.
func (l *LocalSC) Tick(tick uint64) SCTickWork {
	var w SCTickWork
	if l.everyOther && tick%2 == 1 {
		return w
	}
	for _, c := range l.constructs {
		w.WorkUnits += c.Step()
		w.LocalSteps++
	}
	w.Simulated = len(l.constructs) > 0
	return w
}

// Count implements SCBackend.
func (l *LocalSC) Count() int { return len(l.constructs) }

// --- Terrain backends --------------------------------------------------------

// TerrainBackend produces chunks on demand. The game loop requests chunks
// entering view distance and drains completed chunks each tick.
type TerrainBackend interface {
	// Request asks for the chunk at pos to be generated or loaded. The
	// server is the only de-duplicator, so backends queue every request
	// they get: it requests a position at most once until that
	// position's chunk is drained, and asks again only after the chunk
	// has been unloaded.
	Request(pos world.ChunkPos)
	// DrainAppend appends the chunks that completed since the last call
	// to dst and returns it, so the game loop reuses one drain slice
	// across ticks.
	DrainAppend(dst []*world.Chunk) []*world.Chunk
	// Load reports backlog for the cost model: busy workers (local
	// generation competing with the loop) and queued requests.
	Load() (busyWorkers, queued int)
}

// TerrainFocus is an optional TerrainBackend extension: each demand scan
// the server hands it the current avatar positions, so backends with a
// bounded dispatch window (the serverless backend's nearest-player-first
// queue) can prioritise the chunks players are about to see.
type TerrainFocus interface {
	SetFocus(positions []world.BlockPos)
}

// LocalTerrain generates chunks on a bounded local worker pool, modelling
// Opencraft's in-process generation: throughput is capped by the pool and
// busy workers interfere with the game loop (§II-A).
type LocalTerrain struct {
	clock   sim.Clock
	gen     terrain.Generator
	workers int
	// nsPerUnit is the per-work-unit generation speed of one local
	// worker. Calibrated so a default-world chunk takes ~300 ms: an
	// 8-worker pool sustains ~26 chunks/s, enough for players at 1–2
	// blocks/s but not 6+ (Fig. 10).
	nsPerUnit time.Duration

	busy  int
	queue []world.ChunkPos
	done  []*world.Chunk
}

var _ TerrainBackend = (*LocalTerrain)(nil)

// DefaultLocalWorkers is the size of the baseline generation pool.
const DefaultLocalWorkers = 8

// defaultLocalGenNsPerUnit yields ~270 ms per default chunk (12800 units),
// giving the 8-worker pool ~30 chunks/s of throughput (Fig. 10 anchor:
// keeps up with 5 players below 6 blocks/s, falls behind above).
const defaultLocalGenNsPerUnit = 21 * time.Microsecond

// NewLocalTerrain returns a local-generation backend with the default pool
// size and speed.
func NewLocalTerrain(clock sim.Clock, gen terrain.Generator) *LocalTerrain {
	return &LocalTerrain{
		clock:     clock,
		gen:       gen,
		workers:   DefaultLocalWorkers,
		nsPerUnit: defaultLocalGenNsPerUnit,
	}
}

// Request implements TerrainBackend.
func (l *LocalTerrain) Request(pos world.ChunkPos) {
	l.queue = append(l.queue, pos)
	l.dispatch()
}

// dispatch starts queued generations while workers are free.
func (l *LocalTerrain) dispatch() {
	for l.busy < l.workers && len(l.queue) > 0 {
		pos := l.queue[0]
		l.queue = l.queue[1:]
		l.busy++
		c := l.gen.Generate(pos) // real generation; time modelled below
		genTime := time.Duration(c.GenWork) * l.nsPerUnit
		// ±20% uniform speed variance between generations.
		genTime += time.Duration(l.clock.RNG().Int63n(int64(genTime)/5)) - genTime/10
		l.clock.After(genTime, func() {
			l.busy--
			l.done = append(l.done, c)
			l.dispatch()
		})
	}
}

// DrainAppend implements TerrainBackend; the backend's done list is reset
// in place so its backing array is reused too.
func (l *LocalTerrain) DrainAppend(dst []*world.Chunk) []*world.Chunk {
	dst = append(dst, l.done...)
	for i := range l.done {
		l.done[i] = nil
	}
	l.done = l.done[:0]
	return dst
}

// Load implements TerrainBackend.
func (l *LocalTerrain) Load() (int, int) { return l.busy, len(l.queue) }
