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
	if b.Count() != 0 || b.Construct(id) != nil {
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

func TestLocalTerrainDeduplicatesRequests(t *testing.T) {
	loop := sim.NewLoop(2)
	lt := NewLocalTerrain(loop, terrain.Flat{})
	pos := world.ChunkPos{X: 1, Z: 1}
	lt.Request(pos)
	lt.Request(pos)
	lt.Request(pos)
	loop.Run()
	if got := len(lt.DrainAppend(nil)); got != 1 {
		t.Fatalf("%d chunks for one position, want 1", got)
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
	p := s.Connect("pacer", BehaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
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
