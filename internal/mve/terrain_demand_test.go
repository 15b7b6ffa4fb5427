// Tests for the incremental terrain-demand scan (the per-player demand
// cursor) and tick re-phase-locking. The incremental scan must be
// observationally identical to the full rescan: same requests, same
// known sets, same send queues, in the same order — Config.
// FullDemandRescan keeps the baseline alive as the cross-check.

package mve

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"servo/internal/sim"
	"servo/internal/world"
)

// demandSignature serialises everything the demand scan can observably
// affect: counters, per-player chunk knowledge and pending send queues
// (in queue order), the in-flight request set, and the loaded-chunk set.
func demandSignature(s *Server) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick=%d sent=%d applied=%d loaded=%d\n",
		s.Tick(), s.ChunksSent.Value(), s.ChunksApplied.Value(), s.World().LoadedCount())
	loaded := s.World().LoadedChunks()
	sort.Slice(loaded, func(i, j int) bool {
		if loaded[i].X != loaded[j].X {
			return loaded[i].X < loaded[j].X
		}
		return loaded[i].Z < loaded[j].Z
	})
	for _, p := range s.playerOrder {
		var known []world.ChunkPos
		for _, cp := range loaded {
			if p.knows(s.World().Slot(cp)) {
				known = append(known, cp)
			}
		}
		bits := 0
		for _, w := range p.known {
			bits += mathbits.OnesCount64(w)
		}
		fmt.Fprintf(&b, "p%d recv=%d known=%v bits=%d queue=%v\n",
			p.ID, p.ChunksReceived, known, bits, p.sendQueue[p.sendHead:])
	}
	requested := make([]world.ChunkPos, 0, s.requested.Len())
	for cp := range s.requested.All() {
		requested = append(requested, cp)
	}
	sort.Slice(requested, func(i, j int) bool {
		if requested[i].X != requested[j].X {
			return requested[i].X < requested[j].X
		}
		return requested[i].Z < requested[j].Z
	})
	fmt.Fprintf(&b, "requested=%v\n", requested)
	return b.String()
}

// walker returns a deterministic behavior that strides outward, crossing
// chunk boundaries regularly so demand cursors keep dirtying.
func walker(stride float64) Behavior {
	return behaviorFunc(func(r *rand.Rand, p *Player, s *Server) []Action {
		if s.Tick()%25 != 1 {
			return nil
		}
		leg := float64(s.Tick() / 25)
		return []Action{MoveTo(p.X+stride, p.Z+stride*leg/4, 8)}
	})
}

// driveDemandRun runs one server through the shared script — walking
// players, whose far chunks unload behind them, and a handoff-displaced
// player — collecting a signature each scan period. It also returns how
// many demand walks took the strip path.
func driveDemandRun(full bool) (sigs []string, recomputes, strips int64) {
	loop := sim.NewLoop(11)
	s := NewServer(loop, Config{
		Profile:      ProfileOpencraft,
		WorldType:    "flat",
		Seed:         11,
		ViewDistance: 48,
	})
	s.fullDemandRescan = full
	s.Connect("strider", walker(6))
	s.Connect("camper", nil) // never moves: stays clean after its first scan
	s.Connect("drifter", walker(3))
	s.Start()

	// Handoff displacement: evict a session and re-admit it far away
	// (the cluster's cross-shard handoff path), where no terrain is
	// loaded yet.
	loop.After(6*time.Second, func() {
		snap, ok := s.EvictPlayer(s.playerOrder[0].ID)
		if !ok {
			panic("evict failed")
		}
		snap.X, snap.Z = 400, -300
		snap.DestX, snap.DestZ = 400, -300
		s.AdmitPlayer(snap)
	})

	for loop.Now() < 10*time.Second {
		loop.RunUntil(loop.Now() + scanPeriodDuration(s))
		sigs = append(sigs, demandSignature(s))
	}
	return sigs, s.TerrainRecomputes.Value(), s.stripWalks
}

func scanPeriodDuration(s *Server) time.Duration {
	return time.Duration(terrainScanPeriod) * TickInterval
}

func TestIncrementalDemandMatchesFullRescan(t *testing.T) {
	incSigs, incRecomputes, strips := driveDemandRun(false)
	fullSigs, fullRecomputes, _ := driveDemandRun(true)
	if len(incSigs) != len(fullSigs) {
		t.Fatalf("checkpoint counts diverge: inc %d, full %d", len(incSigs), len(fullSigs))
	}
	for i := range incSigs {
		if incSigs[i] != fullSigs[i] {
			t.Fatalf("streams diverge at checkpoint %d:\nincremental:\n%s\nfull rescan:\n%s",
				i, incSigs[i], fullSigs[i])
		}
	}
	if incRecomputes == 0 {
		t.Fatal("incremental run recorded no TerrainRecomputes — cursors never dirtied")
	}
	if incRecomputes >= fullRecomputes {
		t.Fatalf("incremental scan recomputed %d rects, full rescan %d — no work was skipped",
			incRecomputes, fullRecomputes)
	}
	if strips == 0 {
		t.Fatal("no walker's crossing took the strip walk")
	}
}

// TestIncrementalDemandSteadyStateSkips pins the point of the cursor: a
// stationary fleet stops recomputing entirely after its first scan.
func TestIncrementalDemandSteadyStateSkips(t *testing.T) {
	loop := sim.NewLoop(3)
	s := NewServer(loop, Config{Profile: ProfileOpencraft, WorldType: "flat", ViewDistance: 48})
	for i := 0; i < 5; i++ {
		s.ConnectAt(fmt.Sprintf("idle%d", i), nil, float64(i*20), float64(i*10))
	}
	s.Start()
	runFor(loop, time.Second)
	warm := s.TerrainRecomputes.Value()
	if warm < 5 {
		t.Fatalf("first scans recomputed %d rects, want >= 5", warm)
	}
	runFor(loop, 4*time.Second)
	if got := s.TerrainRecomputes.Value(); got != warm {
		t.Fatalf("stationary players kept recomputing: %d -> %d", warm, got)
	}
}

// TestScanTerrainDemandZeroAlloc: with 100 stationary players on a
// settled flat world — every demanded chunk streamed in and acknowledged,
// demand cursors warm — a demand scan allocates nothing.
func TestScanTerrainDemandZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(9)
	s := NewServer(loop, Config{WorldType: "flat", ViewDistance: 64})
	for i := 0; i < 100; i++ {
		s.ConnectAt(fmt.Sprintf("p%d", i), nil, float64((i%10)*24-108), float64(i/10*24-108))
	}
	s.Start()
	runFor(loop, 30*time.Second)
	s.ScanTerrainDemand()
	if got := testing.AllocsPerRun(100, s.ScanTerrainDemand); got != 0 {
		t.Fatalf("settled demand scan: %v allocs per scan, want 0", got)
	}
}

// TestStripWalkZeroAlloc: on a settled flat world, 100 players oscillating
// across a chunk boundary take the strip walk every scan, one gained
// column each, and neither the scan nor the send-queue drain allocates.
func TestStripWalkZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(9)
	s := NewServer(loop, Config{WorldType: "flat", ViewDistance: 64})
	for i := 0; i < 100; i++ {
		s.ConnectAt(fmt.Sprintf("p%d", i), nil, float64((i%10)*24-108), float64(i/10*24-108))
	}
	side := 1.0
	oscillate := func() {
		for _, p := range s.playerOrder {
			placeAt(p, p.X+side*world.ChunkSizeX, p.Z)
		}
		side = -side
		s.ScanTerrainDemand()
		s.drainSendQueues()
	}
	s.Start()
	runFor(loop, 5*time.Second)
	oscillate()
	runFor(loop, 25*time.Second)
	oscillate()
	strips, lookups := s.stripWalks, s.demandLookups
	if got := testing.AllocsPerRun(100, oscillate); got != 0 {
		t.Fatalf("oscillating players: %v allocs per strip scan, want 0", got)
	}
	const scans = 101 // AllocsPerRun warms up with one extra call
	const column = 2*64/world.ChunkSizeZ + 1
	if got := s.stripWalks - strips; got != 100*scans {
		t.Fatalf("%d strip walks in %d scans of 100 players, want %d", got, scans, 100*scans)
	}
	if got := s.demandLookups - lookups; got != 100*scans*column {
		t.Fatalf("%d World look-ups in %d scans, want one %d-chunk column a player", got, scans, column)
	}
}

// TestFreedSlotChunkIsStillSent: a chunk sent to a player and then
// unloaded frees its world slot; the chunk that takes the slot next has
// never been sent and must be.
func TestFreedSlotChunkIsStillSent(t *testing.T) {
	loop := sim.NewLoop(3)
	s := NewServer(loop, Config{WorldType: "flat", ViewDistance: 48})
	rec := &recordingBehavior{got: make(map[world.ChunkPos]bool)}
	p := s.Connect("p", rec)
	s.Start()
	runFor(loop, 2*time.Second)
	sent := make(map[int]world.ChunkPos) // slot → the chunk there, sent
	for cp := range rec.got {
		sent[s.World().Slot(cp)] = cp
	}
	if len(sent) == 0 {
		t.Fatal("nothing was sent at spawn")
	}
	// Away long enough for the unload scan to drop every spawn chunk.
	placeAt(p, 2000, 0)
	runFor(loop, 6*time.Second)
	for _, cp := range sent {
		if s.World().Loaded(cp) {
			t.Fatalf("spawn chunk %v still loaded", cp)
		}
	}
	// Then somewhere new, whose chunks take the freed slots.
	rec.got = make(map[world.ChunkPos]bool)
	placeAt(p, 0, 2000)
	runFor(loop, 2*time.Second)
	reused := 0
	for _, cp := range world.ChunksWithin(p.Pos(), 48) {
		slot := s.World().Slot(cp)
		was, freed := sent[slot]
		if freed {
			reused++
		}
		if !rec.got[cp] {
			t.Fatalf("chunk %v in slot %d (freed by %v: %v) was never sent", cp, slot, was, freed)
		}
	}
	if reused == 0 {
		t.Fatal("no chunk of the new view took a freed slot — the fixture does not reach the hazard")
	}
}

// recordingBehavior is an idle player whose client records every chunk it
// is sent.
type recordingBehavior struct{ got map[world.ChunkPos]bool }

func (r *recordingBehavior) Actions(*rand.Rand, *Player, *Server) []Action { return nil }

func (r *recordingBehavior) ReceiveChunk(_ *Server, cp world.ChunkPos) { r.got[cp] = true }

// TestSteadyTickZeroAlloc: a whole tick of a settled server — 50 idle
// players whose terrain has fully streamed in and whose send queues have
// drained — allocates nothing: demand-cursor skips, reused scan buffers,
// the recycled tick event, the head-indexed send queues.
func TestSteadyTickZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(5)
	s := NewServer(loop, Config{WorldType: "flat", ViewDistance: 64})
	for i := 0; i < 50; i++ {
		s.ConnectAt(fmt.Sprintf("p%d", i), nil, float64((i%10)*12-54), float64(i/10*12-24))
	}
	s.Start()
	runFor(loop, 30*time.Second)
	before := s.Tick()
	const ticks = 100
	got := testing.AllocsPerRun(ticks, func() { runFor(loop, TickInterval) })
	if ran := s.Tick() - before; ran != ticks+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("measured window ran %d ticks, want %d", ran, ticks+1)
	}
	if got != 0 {
		t.Fatalf("steady-state tick: %v allocs per tick, want 0", got)
	}
}

// TestPhaseLockRealignsOverlongTicks checks the re-phase-locking
// arithmetic: with a modelled tick cost above the tick interval, a
// phase-locked server keeps every tick on the global TickInterval grid,
// while the default drifts off-phase after the first overrun.
func TestPhaseLockRealignsOverlongTicks(t *testing.T) {
	overloaded := CostParams{TickBase: 70 * time.Millisecond} // > 50 ms interval, no noise
	run := func(phaseLock bool) []time.Duration {
		loop := sim.NewLoop(1)
		s := NewServer(loop, Config{
			Profile:   ProfileOpencraft,
			WorldType: "flat",
			PhaseLock: phaseLock,
		})
		s.cost = overloaded
		s.Start()
		runFor(loop, 2*time.Second)
		times, _ := s.TickSeries.Points()
		return times
	}

	locked := run(true)
	if len(locked) == 0 {
		t.Fatal("phase-locked server never ticked")
	}
	for i, at := range locked {
		if at%TickInterval != 0 {
			t.Fatalf("phase-locked tick %d at %v is off the %v grid", i, at, TickInterval)
		}
	}

	free := run(false)
	off := 0
	for _, at := range free {
		if at%TickInterval != 0 {
			off++
		}
	}
	if off == 0 {
		t.Fatal("unlocked overloaded server stayed on-grid — the overload fixture is not overlong")
	}
}
