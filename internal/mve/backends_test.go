package mve

import (
	"math/rand"
	"testing"
	"time"

	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

func TestLocalSCEveryOtherTick(t *testing.T) {
	b := NewLocalSC(true)
	b.Add(sc.NewClock(3, 1))
	b.Add(sc.NewClock(3, 2))
	simulated := 0
	for tick := uint64(1); tick <= 10; tick++ {
		w := b.Tick(tick)
		if w.Simulated {
			simulated++
			if w.LocalSteps != 2 {
				t.Fatalf("tick %d: %d local steps, want 2", tick, w.LocalSteps)
			}
			if w.WorkUnits <= 0 {
				t.Fatal("simulated tick must report work")
			}
		} else if w.WorkUnits != 0 {
			t.Fatal("skipped tick must report zero work")
		}
	}
	if simulated != 5 {
		t.Fatalf("simulated on %d of 10 ticks, want 5 (every other)", simulated)
	}
}

func TestLocalSCEveryTick(t *testing.T) {
	b := NewLocalSC(false)
	b.Add(sc.NewClock(3, 1))
	for tick := uint64(1); tick <= 6; tick++ {
		if w := b.Tick(tick); !w.Simulated || w.LocalSteps != 1 {
			t.Fatalf("tick %d: %+v, want one step every tick", tick, w)
		}
	}
}

func TestLocalSCAddRemoveModify(t *testing.T) {
	b := NewLocalSC(false)
	id := b.Add(sc.NewClock(3, 1))
	if b.Count() != 1 {
		t.Fatal("count after add")
	}
	touched := false
	if !b.Modify(id, func(*sc.Construct) { touched = true }) || !touched {
		t.Fatal("modify must run the mutation")
	}
	if b.Modify(999, func(*sc.Construct) {}) {
		t.Fatal("modify of unknown id must fail")
	}
	b.Remove(id)
	if b.Count() != 0 || b.constructs[id] != nil {
		t.Fatal("remove failed")
	}
	if w := b.Tick(1); w.Simulated {
		t.Fatal("empty backend must report nothing simulated")
	}
}

func TestLocalTerrainWorkerPoolThroughput(t *testing.T) {
	loop := sim.NewLoop(1)
	lt := NewLocalTerrain(loop, terrain.Default{Seed: 1})
	// Request 3× the pool size; only `workers` may run at once.
	for i := 0; i < 3*DefaultLocalWorkers; i++ {
		lt.Request(world.ChunkPos{X: i, Z: 0})
	}
	busy, queued := lt.Load()
	if busy != DefaultLocalWorkers {
		t.Fatalf("busy = %d, want the full pool (%d)", busy, DefaultLocalWorkers)
	}
	if queued != 2*DefaultLocalWorkers {
		t.Fatalf("queued = %d, want %d", queued, 2*DefaultLocalWorkers)
	}
	loop.Run()
	if got := len(lt.DrainAppend(nil)); got != 3*DefaultLocalWorkers {
		t.Fatalf("completed %d chunks, want %d", got, 3*DefaultLocalWorkers)
	}
	if busy, queued := lt.Load(); busy != 0 || queued != 0 {
		t.Fatal("pool not idle after completion")
	}
}

// heldTerrain is a TerrainBackend that holds every request until release
// and counts requests per position. A request for a position the server
// has already asked for and not yet drained counts as a duplicate.
type heldTerrain struct {
	requests    map[world.ChunkPos]int
	outstanding map[world.ChunkPos]bool
	held        []world.ChunkPos
	done        []*world.Chunk
	duplicates  int
}

func newHeldTerrain() *heldTerrain {
	return &heldTerrain{requests: map[world.ChunkPos]int{}, outstanding: map[world.ChunkPos]bool{}}
}

func (h *heldTerrain) Request(pos world.ChunkPos) {
	h.requests[pos]++
	if h.outstanding[pos] {
		h.duplicates++
	}
	h.outstanding[pos] = true
	h.held = append(h.held, pos)
}

// release completes every held request.
func (h *heldTerrain) release() {
	for _, pos := range h.held {
		h.done = append(h.done, terrain.Flat{}.Generate(pos))
	}
	h.held = h.held[:0]
}

func (h *heldTerrain) DrainAppend(dst []*world.Chunk) []*world.Chunk {
	for _, c := range h.done {
		delete(h.outstanding, c.Pos)
	}
	dst = append(dst, h.done...)
	h.done = h.done[:0]
	return dst
}

func (h *heldTerrain) Load() (busyWorkers, queued int) { return 0, len(h.held) }

// TestServerRequestsEachChunkOnce: the server is the only request
// de-duplicator, so its terrain backend must see a position once until
// that chunk is drained, and once more only after an unload. Two players
// with overlapping views are scanned several times while every request is
// held, with and without a store (whose misses reach the backend through
// the load callback); then the chunks are delivered, the players walk away
// until they unload, and come back.
func TestServerRequestsEachChunkOnce(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		loop := sim.NewLoop(5)
		gen := newHeldTerrain()
		cfg := Config{WorldType: "flat", Seed: 5, ViewDistance: demandView, Terrain: gen}
		if withStore {
			cfg.Store = &recordingStore{}
		}
		s := NewServer(loop, cfg)
		p0 := s.ConnectAt("p0", nil, 1000, 0)
		p1 := s.ConnectAt("p1", nil, 1040, -24)
		s.Start()
		view := func() map[world.ChunkPos]bool {
			in := map[world.ChunkPos]bool{}
			for _, p := range []*Player{p0, p1} {
				for _, cp := range world.ChunksWithin(p.Pos(), demandView) {
					in[cp] = true
				}
			}
			return in
		}
		settle := func() {
			runFor(loop, 2*time.Second)
			gen.release()
			runFor(loop, 2*time.Second)
		}

		// Several scans, the players stepping a chunk between them, while
		// nothing is delivered.
		first := map[world.ChunkPos]bool{}
		for step := 0; step < 4; step++ {
			runFor(loop, time.Second)
			for cp := range view() {
				first[cp] = true
			}
			placeAt(p0, p0.X+world.ChunkSizeX, p0.Z)
			placeAt(p1, p1.X, p1.Z+world.ChunkSizeZ)
		}
		settle()
		for cp := range first {
			if n := gen.requests[cp]; n != 1 {
				t.Fatalf("store %v: %v requested %d times before delivery, want 1", withStore, cp, n)
			}
		}

		// Walk away until everything seen so far unloads (an unload scan
		// passes), then come back.
		back0, back1 := p0.Pos(), p1.Pos()
		placeAt(p0, 4000, 0)
		placeAt(p1, 4040, -24)
		runFor(loop, unloadScanPeriod*TickInterval)
		settle()
		for cp := range first {
			if s.World().Loaded(cp) {
				t.Fatalf("store %v: %v still loaded after the players left", withStore, cp)
			}
		}
		placeAt(p0, float64(back0.X), float64(back0.Z))
		placeAt(p1, float64(back1.X), float64(back1.Z))
		settle()
		for cp := range view() {
			if !s.World().Loaded(cp) {
				t.Fatalf("store %v: %v not loaded after the players came back", withStore, cp)
			}
			if n := gen.requests[cp]; n != 2 {
				t.Fatalf("store %v: %v requested %d times after one unload, want 2", withStore, cp, n)
			}
		}
		if gen.duplicates != 0 {
			t.Fatalf("store %v: %d requests for positions already in flight", withStore, gen.duplicates)
		}
	}
}

// countingTerrain counts the requests that reach a LocalTerrain and the
// chunks it delivers, per position.
type countingTerrain struct {
	*LocalTerrain
	requests  map[world.ChunkPos]int
	delivered map[world.ChunkPos]int
}

func (c *countingTerrain) Request(pos world.ChunkPos) {
	c.requests[pos]++
	c.LocalTerrain.Request(pos)
}

func (c *countingTerrain) DrainAppend(dst []*world.Chunk) []*world.Chunk {
	n := len(dst)
	dst = c.LocalTerrain.DrainAppend(dst)
	for _, ch := range dst[n:] {
		c.delivered[ch.Pos]++
	}
	return dst
}

// TestLocalTerrainDeduplicatesRequests: LocalTerrain queues every request
// it gets, so duplicates are kept from it by the server in front of it.
// Two players with overlapping views stand still while the default world's
// slow generation spans several demand scans; every position must still
// be requested, generated and delivered once.
func TestLocalTerrainDeduplicatesRequests(t *testing.T) {
	loop := sim.NewLoop(2)
	gen := terrain.Default{Seed: 2}
	lt := &countingTerrain{
		LocalTerrain: NewLocalTerrain(loop, gen),
		requests:     map[world.ChunkPos]int{},
		delivered:    map[world.ChunkPos]int{},
	}
	s := NewServer(loop, Config{WorldType: "default", Seed: 2, ViewDistance: demandView, Terrain: lt})
	p0 := s.ConnectAt("p0", nil, 1000, 0)
	p1 := s.ConnectAt("p1", nil, 1040, -24)
	s.Start()
	runFor(loop, time.Second)
	if _, queued := lt.Load(); queued == 0 {
		t.Fatal("no request queued after a second; generation is too fast to span scans")
	}
	runFor(loop, 10*time.Second)
	for _, p := range []*Player{p0, p1} {
		for _, cp := range world.ChunksWithin(p.Pos(), demandView) {
			if !s.World().Loaded(cp) {
				t.Fatalf("%v in view not loaded", cp)
			}
			if lt.requests[cp] != 1 || lt.delivered[cp] != 1 {
				t.Fatalf("%v requested %d and delivered %d times, want 1 and 1", cp, lt.requests[cp], lt.delivered[cp])
			}
		}
	}
	for cp, n := range lt.requests {
		if n != 1 {
			t.Fatalf("%v requested %d times, want 1", cp, n)
		}
	}
}

func TestLocalTerrainGenerationTimeScalesWithWorld(t *testing.T) {
	timeFor := func(gen terrain.Generator) time.Duration {
		loop := sim.NewLoop(3)
		lt := NewLocalTerrain(loop, gen)
		lt.Request(world.ChunkPos{})
		start := loop.Now()
		loop.Run()
		return loop.Now() - start
	}
	flat, def := timeFor(terrain.Flat{}), timeFor(terrain.Default{Seed: 1})
	if def <= 10*flat {
		t.Fatalf("default world (%v) must be far slower than flat (%v)", def, flat)
	}
	// The Fig. 10 calibration: a default chunk takes ~270 ms ± variance.
	if def < 150*time.Millisecond || def > 450*time.Millisecond {
		t.Fatalf("default chunk generation = %v, want ~270ms", def)
	}
}

func TestLocalTerrainChunksAreDeterministic(t *testing.T) {
	gen := terrain.Default{Seed: 9}
	loop := sim.NewLoop(4)
	lt := NewLocalTerrain(loop, gen)
	lt.Request(world.ChunkPos{X: 5, Z: -5})
	loop.Run()
	got := lt.DrainAppend(nil)[0]
	if !got.Equal(gen.Generate(world.ChunkPos{X: 5, Z: -5})) {
		t.Fatal("pool-generated chunk differs from direct generation")
	}
}

// TestLocalTerrainRegeneratesUnloadedChunks: with the local backend and no
// store, terrain that was generated, left behind until it unloaded, and
// walked back into must be generated a second time — a backend that
// remembers a position as requested forever leaves holes in the view.
func TestLocalTerrainRegeneratesUnloadedChunks(t *testing.T) {
	loop := sim.NewLoop(9)
	s := NewServer(loop, Config{Profile: ProfileOpencraft, WorldType: "flat", Seed: 9, ViewDistance: 64})
	// Out well past the preloaded spawn area and the unload margin, then
	// back to a point whose whole view was generated on the way out.
	waypoints := []float64{900, 400}
	p := s.Connect("pacer", behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if p.Moving() || len(waypoints) == 0 {
			return nil
		}
		x := waypoints[0]
		waypoints = waypoints[1:]
		return []Action{MoveTo(x, 0, 30)}
	}))
	s.Start()
	runFor(loop, 60*time.Second)
	if p.Moving() || p.Pos().X != 400 {
		t.Fatalf("player at %v, still moving %v: the walk did not finish", p.Pos(), p.Moving())
	}
	if s.World().Loaded(world.ChunkPos{X: 900 / world.ChunkSizeX}) {
		t.Fatal("the far end of the walk never unloaded; the test walks too short a way")
	}
	missing := 0
	for _, cp := range world.ChunksWithin(p.Pos(), s.Config().ViewDistance) {
		if !s.World().Loaded(cp) {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d chunks in view are missing after walking back over unloaded terrain", missing)
	}
}
