package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"servo/internal/blob"
	"servo/internal/core"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// slice is the step the measured window advances by: one 20 Hz tick.
const slice = 50 * time.Millisecond

// graceSlices is how long before the window's end the view rectangles are
// noted for the missing-terrain check: a chunk demanded three virtual
// seconds ago and still absent is a failed load, one demanded this tick
// is merely in flight. (Three seconds moves the fastest walker 24 blocks,
// inside the 32-block unload margin, so a noted chunk cannot have been
// legitimately unloaded since.)
const graceSlices = 60

// rig is one assembled system on its own virtual clock, with the
// benchmark's observers attached.
type rig struct {
	observed
	in     *inputs
	loop   *sim.Loop
	tracer *tracer
}

// observed is an assembled system and what the WrapStore decorator saw
// of it: the part of a rig the virtual and the real-time workloads share.
type observed struct {
	sys   *core.System
	store storeCounts
}

func (o *observed) servers() []*mve.Server {
	out := make([]*mve.Server, len(o.sys.Shards))
	for i, sh := range o.sys.Shards {
		out[i] = sh.Server
	}
	return out
}

// viewDistance is the setting of every workload but town: a 9×9-chunk view
// keeps a walker's frontier at a handful of new chunks per second.
const viewDistance = 64

// build assembles the workload's configuration of the real stack, joins
// the generated population and warms up in virtual time. remote, if
// non-nil, is a populated object store the system boots over (revisit).
func build(in *inputs, tr *tracer, remote *blob.Store) *rig {
	r := &rig{in: in, loop: sim.NewLoop(worldSeed), tracer: tr}
	cfg := core.Config{Seed: worldSeed}
	observe := func(s mve.ChunkStore) mve.ChunkStore {
		return &observedStore{inner: s.(chunkStore), counts: &r.store, tr: tr}
	}
	switch in.Workload {
	case "town":
		cfg.WorldType = "flat"
		cfg.ServerlessSC = true
	case "explore", "revisit":
		cfg.WorldType = "default"
		cfg.ViewDistance = viewDistance
		cfg.ServerlessTG = true
		cfg.ServerlessRS = true
		cfg.WrapStore = observe
		if remote != nil {
			cfg.Remote = blob.NewStore(r.loop, remote.Tier())
			cfg.Remote.CopyFrom(remote)
		}
	case "cluster":
		cfg.WorldType = "flat"
		cfg.ViewDistance = viewDistance
		// Flat terrain needs little generating, but the local backend never
		// regenerates a chunk that was unloaded and is demanded again (its
		// requested set is never cleared): walkers returning over a seam
		// would end the window with holes in their view.
		cfg.ServerlessTG = true
		cfg.ServerlessRS = true
		cfg.WrapStore = observe
		cfg.Shards = 4
		cfg.Topology = world.GridTopology{TilesX: 2, TilesZ: 2, TileChunks: 8}
		cfg.Visibility = true
		cfg.PhaseLock = true
		cfg.Workers = runtime.GOMAXPROCS(0)
	default:
		panic("build: not a virtual-clock workload: " + in.Workload)
	}
	r.sys = core.New(r.loop, cfg)
	if cl := r.sys.Cluster; cl != nil {
		cl.Start()
	} else {
		r.sys.Server.Start()
	}
	for _, c := range in.Constructs {
		r.sys.Server.SpawnConstruct(sc.BuildSized(c.Blocks), world.BlockPos{X: c.X, Y: 5, Z: c.Z})
	}
	for _, p := range in.Players {
		b := behaviorFor(p)
		if cl := r.sys.Cluster; cl != nil {
			cl.ConnectAt(p.Name, b, world.BlockPos{X: p.X, Z: p.Z})
		} else {
			r.sys.Server.ConnectAt(p.Name, b, float64(p.X), float64(p.Z))
		}
	}
	r.loop.RunUntil(r.loop.Now() + in.Size.Warm)
	return r
}

// behaviorFor builds a generated player's behaviour: the Table I behaviour
// of that name, or its tethered variant.
func behaviorFor(p playerInput) mve.Behavior {
	switch {
	case p.Tether > 0 && p.Behavior == "A":
		return &workload.BoundedMove{Radius: p.Tether}
	case p.Tether > 0 && p.Behavior == "R":
		return &tetheredRandom{reach: float64(p.Tether)}
	}
	return workload.ForName(p.Behavior)
}

// tetheredRandom is behaviour R (the Table II action mix) with every move
// clamped to within reach blocks of the avatar's post.
type tetheredRandom struct {
	workload.Random
	reach        float64
	homeSet      bool
	homeX, homeZ float64
}

func (t *tetheredRandom) Actions(r *rand.Rand, p *mve.Player, s *mve.Server) []mve.Action {
	if !t.homeSet {
		t.homeSet, t.homeX, t.homeZ = true, p.X, p.Z
	}
	acts := t.Random.Actions(r, p, s)
	for i := range acts {
		if acts[i].Kind == mve.ActionMove {
			acts[i].DestX = math.Max(t.homeX-t.reach, math.Min(t.homeX+t.reach, acts[i].DestX))
			acts[i].DestZ = math.Max(t.homeZ-t.reach, math.Min(t.homeZ+t.reach, acts[i].DestZ))
		}
	}
	return acts
}

// stop halts the game loops and the cache flushers, whose reschedule
// closures would otherwise pin the whole system on its loop.
func (r *rig) stop() {
	if cl := r.sys.Cluster; cl != nil {
		cl.Stop()
	} else {
		r.sys.Server.Stop()
	}
	for _, sh := range r.sys.Shards {
		if sh.Cache != nil {
			sh.Cache.StopFlusher()
		}
	}
}

// prewrite walks the explore workload over a throw-away system and returns
// the object store it filled: the world revisit boots over. The walk runs
// a tenth longer than revisit will, so chunks revisit demands at its far
// end were not still in flight when the prewrite stopped.
func prewrite(in *inputs) *blob.Store {
	walk := *in
	walk.Workload = "explore"
	walk.Size.Warm += in.Size.Window + (in.Size.Warm+in.Size.Window)/10
	r := build(&walk, nil, nil)
	r.stop()
	for _, sh := range r.sys.Shards {
		sh.Cache.Flush()
	}
	// Drain: with the game loop stopped only the flush's writes remain.
	r.loop.RunUntil(r.loop.Now() + time.Minute)
	return r.sys.Remote
}

// fingerprint identifies the work a window did. The virtual clock makes it
// a pure function of the commit and the seed: two units of one run must
// agree exactly, and a parent and a change that disagree were not measured
// over the same work.
type fingerprint struct {
	Ticks         []uint64 `json:"ticks"` // per shard
	Actions       int64    `json:"actions"`
	ChunksApplied int64    `json:"chunks_applied"`
	ChunksSent    int64    `json:"chunks_sent"`
	SCInvocations int64    `json:"sc_invocations"`
	TGInvocations int64    `json:"tg_invocations"`
	Handoffs      int64    `json:"handoffs"`
	Positions     string   `json:"positions"` // hash of final avatar positions
}

// counters reads every cumulative public counter the per-layer metrics
// are derived from; a window's work is the difference of two readings.
func (r *observed) counters() map[string]float64 {
	c := map[string]float64{
		"store.loads":      float64(r.store.Loads),
		"store.stores":     float64(r.store.Stores),
		"store.load_ns":    float64(r.store.LoadNs),
		"store.store_ns":   float64(r.store.StoreNs),
		"store.observe_ns": float64(r.store.ObserveNs),
	}
	for _, sh := range r.sys.Shards {
		c["mve.ticks"] += float64(sh.Server.Tick())
		c["mve.actions"] += float64(sh.Server.ActionCount.Value())
		c["mve.chunks_applied"] += float64(sh.Server.ChunksApplied.Value())
		c["mve.chunks_sent"] += float64(sh.Server.ChunksSent.Value())
		c["mve.terrain_recomputes"] += float64(sh.Server.TerrainRecomputes.Value())
		c["world.pool_recycled"] += float64(sh.Pool.Recycled)
		c["world.pool_fresh"] += float64(sh.Pool.Fresh)
		if sh.SpecExec != nil {
			c["specexec.invalidations"] += float64(sh.SpecExec.Snapshot().Discarded)
		}
		if sh.TGBackend != nil {
			c["tgen.deduped"] += float64(sh.TGBackend.GenDeduped)
			c["tgen.failures"] += float64(sh.TGBackend.Failures)
		}
		if sh.Cache != nil {
			c["tcache.hits"] += float64(sh.Cache.Hits.Value())
			c["tcache.misses"] += float64(sh.Cache.Misses.Value())
			c["tcache.prefetch"] += float64(sh.Cache.PrefetchIssued.Value())
		}
	}
	if fn := r.sys.SCFn; fn != nil {
		c["specexec.invocations"] = float64(fn.Invocations.Count())
		c["faas.cold_starts"] += float64(fn.ColdStarts.Value())
	}
	if fn := r.sys.TGFn; fn != nil {
		c["tgen.invocations"] = float64(fn.Invocations.Count())
		c["faas.cold_starts"] += float64(fn.ColdStarts.Value())
	}
	if st := r.sys.Remote; st != nil {
		c["blob.reads"] = float64(st.Reads.Value())
		c["blob.writes"] = float64(st.Writes.Value())
		c["blob.faults"] = float64(st.FaultsInjected.Value())
	}
	if cl := r.sys.Cluster; cl != nil {
		c["cluster.handoffs"] = float64(cl.Handoffs.Value())
		c["cluster.ghost_updates"] = float64(cl.GhostUpdates.Value())
	}
	return c
}

// sessions returns every live session with the server hosting it, in join
// order; a player in flight between shards has none and is skipped.
func (r *rig) sessions() (out []*mve.Player, hosts []*mve.Server) {
	if cl := r.sys.Cluster; cl != nil {
		for _, h := range cl.Players() {
			if p := cl.Session(h); p != nil {
				out = append(out, p)
				hosts = append(hosts, cl.Shard(h.Shard()))
			}
		}
		return out, hosts
	}
	for _, p := range r.sys.Server.Players() {
		out = append(out, p)
		hosts = append(hosts, r.sys.Server)
	}
	return out, hosts
}

// playerCount is the number of players the system still knows, including
// any in flight between shards.
func (r *rig) playerCount() int {
	if cl := r.sys.Cluster; cl != nil {
		return cl.PlayerCount()
	}
	return r.sys.Server.PlayerCount()
}

// unit is what one build → warm → window cycle measured.
type unit struct {
	SetupS     float64
	WallS      float64 // window wall seconds
	VSec       float64 // virtual seconds the window simulated
	CPUMs      float64 // process CPU over the window
	AllocMB    float64
	LiveHeapMB float64
	// Samples behind the percentile metrics; see tails for what each holds
	// on which workload.
	SliceMs   []float64 // wall ms per 50 ms slice
	ActionMs  []float64 // wall ms from an action entering to its effect being observable
	GapMs     []float64 // wall ms from one state update to the next
	PingUs    []float64 // rt-loopback: ping round trips, µs
	Attempted int64
	Failed    int64
	Work      fingerprint
	// Counts are per-layer observations: counter differences over the
	// window plus end-of-window gauges.
	Counts map[string]float64
	// Traced units only.
	Spans   []span
	LayerNs map[string]int64 // CPU profile attributed to layers
	Profile []byte
	Direct  map[string]float64 // direct-call layer timings
}

// measure runs the window on a warmed rig.
func (r *rig) measure(u *unit, direct bool) error {
	size := r.in.Size
	n := int(size.Window / slice)
	u.SliceMs = make([]float64, n)
	for _, sh := range r.sys.Shards {
		sh.Server.TickDurations = metrics.NewSample(n)
	}
	if cl := r.sys.Cluster; cl != nil {
		cl.HandoffLatency = metrics.NewSample(1024)
	}
	r.loop.ResetBatchStats()
	var noted []world.ChunkRect
	var notedFor []*mve.Player
	var prof bytes.Buffer
	if r.tracer != nil {
		if err := startProfile(&prof); err != nil {
			return err
		}
	}
	before := r.counters()
	alloc0, cpu0, start := totalAlloc(), cpuTime(), time.Now()
	for i := 0; i < n; i++ {
		id, t0 := r.tracer.begin()
		r.loop.RunUntil(r.loop.Now() + slice)
		t1 := time.Now()
		r.tracer.end("slice", id, t0, t1)
		u.SliceMs[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
		if i == n-1-graceSlices {
			notedFor, _ = r.sessions()
			for _, p := range notedFor {
				noted = append(noted, world.ChunkRectWithin(p.Pos(), r.sys.Server.Config().ViewDistance))
			}
		}
	}
	wall, cpu, alloc := time.Since(start), cpuTime()-cpu0, totalAlloc()-alloc0
	if r.tracer != nil {
		pprof.StopCPUProfile()
		u.Profile = prof.Bytes()
		stacks, err := parseProfile(u.Profile)
		if err != nil {
			return err
		}
		u.LayerNs = attribute(stacks)
		u.Spans = r.tracer.spans
	}
	after := r.counters()
	u.LiveHeapMB = liveHeapMB()

	u.ActionMs = u.SliceMs
	for i := 1; i < n; i += 2 {
		u.GapMs = append(u.GapMs, u.SliceMs[i-1]+u.SliceMs[i])
	}
	u.WallS = wall.Seconds()
	u.VSec = (time.Duration(n) * slice).Seconds()
	u.CPUMs = float64(cpu.Nanoseconds()) / 1e6
	u.AllocMB = float64(alloc) / (1 << 20)
	u.Counts = make(map[string]float64, len(after)+8)
	for k, v := range after {
		u.Counts[k] = v - before[k]
	}

	// Modelled QoS and scheduler shape: context, never a speed claim.
	ticks := &metrics.Sample{}
	for _, sh := range r.sys.Shards {
		ticks.AddAll(sh.Server.TickDurations.Values())
	}
	u.Counts["mve.tick_p99_vms"] = float64(ticks.Percentile(99).Nanoseconds()) / 1e6
	u.Counts["mve.over_budget_pct"] = ticks.FracAbove(slice) * 100
	u.Counts["sim.wave_parallelism_x"] = 1
	if r.loop.Workers() > 0 {
		u.Counts["sim.wave_parallelism_x"] = r.loop.BatchStats().Speedup()
	}
	if se := r.sys.SpecExec; se != nil {
		u.Counts["specexec.efficiency_median"] = se.MedianEfficiency()
	}
	if cl := r.sys.Cluster; cl != nil {
		u.Counts["cluster.handoff_p99_vms"] = float64(cl.HandoffLatency.Percentile(99).Nanoseconds()) / 1e6
	}

	// Output checks. Attempted operations are the actions the servers
	// processed and the chunk loads they asked the store for; failed ones
	// are generation failures, storage faults, lost players, and terrain
	// demanded graceSlices ago that is still missing.
	u.Attempted = int64(u.Counts["mve.actions"] + u.Counts["store.loads"])
	u.Failed = int64(u.Counts["tgen.failures"]+u.Counts["blob.faults"]) + r.missingTerrain(notedFor, noted)
	if lost := len(r.in.Players) - r.playerCount(); lost > 0 {
		u.Failed += int64(lost)
	}
	u.Work = r.work(after)

	if direct {
		u.Direct = r.directTimings()
	}
	return nil
}

// missingTerrain counts the chunks of the noted view rectangles that the
// server hosting each noted session still has not loaded.
func (r *rig) missingTerrain(sessions []*mve.Player, rects []world.ChunkRect) (missing int64) {
	now, hosts := r.sessions()
	hostOf := make(map[*mve.Player]*mve.Server, len(now))
	for i, p := range now {
		hostOf[p] = hosts[i]
	}
	for i, p := range sessions {
		srv := hostOf[p]
		if srv == nil {
			continue // handed off since: the new session's demand is younger than the grace
		}
		rect := rects[i]
		for cx := rect.Min.X; cx <= rect.Max.X; cx++ {
			for cz := rect.Min.Z; cz <= rect.Max.Z; cz++ {
				if !srv.World().Loaded(world.ChunkPos{X: cx, Z: cz}) {
					missing++
				}
			}
		}
	}
	return missing
}

// work fingerprints everything the system has done since it was built,
// from a counter reading and the avatars' final positions.
func (r *rig) work(counters map[string]float64) fingerprint {
	w := fingerprint{
		Actions:       int64(counters["mve.actions"]),
		ChunksApplied: int64(counters["mve.chunks_applied"]),
		ChunksSent:    int64(counters["mve.chunks_sent"]),
		SCInvocations: int64(counters["specexec.invocations"]),
		TGInvocations: int64(counters["tgen.invocations"]),
		Handoffs:      int64(counters["cluster.handoffs"]),
	}
	for _, sh := range r.sys.Shards {
		w.Ticks = append(w.Ticks, sh.Server.Tick())
	}
	h := sha256.New()
	sessions, _ := r.sessions()
	for _, p := range sessions {
		fmt.Fprintf(h, "%s %.6f %.6f\n", p.Name, p.X, p.Z)
	}
	w.Positions = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return w
}

// virtualUnit runs one unit of a virtual-clock workload. once is the
// process-wide state a workload prepares a single time (revisit's
// prewritten store).
func virtualUnit(in *inputs, traced, direct bool, once *blob.Store) (*unit, error) {
	u := &unit{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	r := build(in, tr, once)
	// Start every window from a collected heap, so garbage left by the
	// previous unit's teardown is not charged to this one.
	runtime.GC()
	u.SetupS = time.Since(t0).Seconds()
	defer r.stop()
	if err := r.measure(u, direct); err != nil {
		return nil, err
	}
	return u, nil
}
