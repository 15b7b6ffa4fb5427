package scenario

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"servo/internal/blob"
	"servo/internal/cluster"
	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/servo/specexec"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// scSpacing is the construct grid pitch, matching the paper's §IV-B
// placement (constructs stay within loaded terrain for bounded players).
const scSpacing = 15

// stormEvictPeriod is how often a cold-start storm re-evicts warm pools.
const stormEvictPeriod = time.Second

// prewriteDrain is how long after the write phase stops the engine waits
// for in-flight cache flushes and store writes to land before restarting
// the world over the populated store.
const prewriteDrain = time.Minute

// Runner executes one scenario on a fresh virtual-clock system.
type Runner struct {
	spec *Spec
	log  io.Writer

	loop     *sim.Loop
	sys      *core.System
	flip     *flipStore
	localAlt *blob.Store // backing store of the flip's "local" side
	// t0 is the virtual time the measured scenario starts: 0, or the end
	// of the prewrite phase (write + drain).
	t0 time.Duration
	// hrng drives harness-level decisions (behavior mixes, churn session
	// lengths), seeded from the spec so they replay deterministically and
	// stay independent of the simulation clock's random stream.
	hrng *rand.Rand
	// viewSeries samples the system-wide minimum view margin once per
	// second, feeding windowed view_margin assertions (nil unless one
	// exists: the scan over every player's view range is not free).
	viewSeries *metrics.TimeSeries

	scZ      int // next free Z band for construct placement
	crowdSeq int // flash-crowd naming sequence
	peak     int // peak concurrent players

	// joins and leaves audit every measured session: joins counts
	// r.connect calls, leaves counts disconnects that found a live
	// session. joins - leaves - final count = players lost by the system
	// (a session that vanished without the harness disconnecting it),
	// the zero-loss invariant scale and failover scenarios assert on.
	joins, leaves int

	// windowGen counts the chaos windows opened per injector slot
	// (Event.slot), so a window's end can tell whether it was replaced.
	windowGen map[string]int

	// base holds the warm-up snapshot of every delta row of the metric
	// table, keyed by reported name.
	base map[string]float64
}

// Run validates spec (normalising defaults), executes it to completion on
// the virtual clock, and returns the report and the stopped system it ran
// on, whose samples a caller may read past the report's metrics (the
// paper's figure cells do). log, if non-nil, receives progress lines
// (they are not part of the deterministic report).
func Run(spec *Spec, log io.Writer) (*Report, *core.System, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	r := &Runner{
		spec:      spec,
		log:       log,
		hrng:      rand.New(rand.NewSource(spec.Seed ^ 0x5eed0c)),
		windowGen: make(map[string]int),
	}
	r.build()
	r.schedule()
	return r.run(), r.sys, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.log != nil {
		fmt.Fprintf(r.log, "[%10s] %s\n", r.loop.Now(), fmt.Sprintf(format, args...))
	}
}

// at schedules fn at d after the measured scenario's start (offset by the
// prewrite phase when one ran).
func (r *Runner) at(d time.Duration, fn func()) { r.loop.At(r.t0+d, fn) }

func profileFor(name string) mve.Profile {
	switch name {
	case "opencraft":
		return mve.ProfileOpencraft
	case "minecraft":
		return mve.ProfileMinecraft
	}
	return mve.ProfileServo
}

func hasFlip(spec *Spec) bool {
	for _, e := range spec.Events {
		if e.Kind == EvFlipStorage {
			return true
		}
	}
	return false
}

// build assembles the system under test from the spec.
func (r *Runner) build() {
	spec := r.spec
	r.loop = sim.NewLoop(spec.Seed)
	r.scZ = -105 // construct grid bands start at the spawn region's edge
	cfg := core.Config{
		Seed:         spec.Seed,
		WorldType:    spec.World.Type,
		ViewDistance: spec.World.ViewDistance,
		Profile:      profileFor(spec.World.Profile),
		ServerlessSC: spec.Backend.Constructs,
		ServerlessTG: spec.Backend.Terrain,
		ServerlessRS: spec.Backend.Storage,
		LocalStore:   spec.Backend.LocalStore,
		Shards:       spec.Shards,
		Topology:     spec.Topology.build(),
		Workers:      spec.Workers,
		PhaseLock:    spec.PhaseLock,
	}
	cfg.TGMaxInflight = spec.Backend.TGMaxInflight
	if rb := spec.Rebalance; rb != nil {
		cfg.Rebalance = true
		cfg.RebalanceThreshold = rb.Threshold
		cfg.RebalanceInterval = rb.Interval.D()
	}
	if a := spec.Autoscale; a != nil {
		cfg.Autoscale = a.config()
	}
	if v := spec.Visibility; v != nil {
		cfg.Visibility = true
		cfg.VisibilityMargin = v.Margin
	}
	cfg.CheckpointInterval = spec.Checkpoint.D()
	if se := spec.Backend.SpecExec; se != nil {
		sx := specexec.DefaultConfig()
		if se.TickLead != nil {
			sx.TickLead = *se.TickLead
		}
		if se.Steps != nil {
			sx.StepsPerInvocation = *se.Steps
		}
		if se.DetectLoops != nil {
			sx.DetectLoops = *se.DetectLoops
		}
		cfg.SpecExec = sx
	}
	if spec.Prewrite != nil {
		cfg = r.runPrewrite(cfg)
	}
	if hasFlip(spec) {
		r.localAlt = blob.NewStore(r.loop, blob.TierLocal)
		local := core.NewBlobChunkStore(r.localAlt)
		cfg.WrapStore = func(s mve.ChunkStore) mve.ChunkStore {
			r.flip = &flipStore{serverless: s, local: local}
			return r.flip
		}
	}
	r.sys = core.New(r.loop, cfg)
	for _, g := range spec.Constructs {
		r.placeConstructs(g.Count, g.Blocks)
	}
	r.sys.Cluster.Start()
	for _, a := range spec.Assertions {
		if a.Metric == viewMargin.name && a.Windowed() {
			r.viewSeries = &metrics.TimeSeries{}
			r.loop.After(time.Second, r.sampleViewMargin)
			break
		}
	}
}

// sampleViewMargin records the distance from the closest player to the
// nearest missing terrain (minimum across shards), once per second: the
// series behind windowed view_margin assertions — the Fig. 10 QoS
// signal, observable over time instead of only at the end of the run.
func (r *Runner) sampleViewMargin() {
	r.viewSeries.Add(r.loop.Now(), time.Duration(minViewMargin(r)))
	if r.loop.Now() < r.t0+r.spec.Duration.D() {
		r.loop.After(time.Second, r.sampleViewMargin)
	}
}

// windowViewMargin returns the minimum sampled view margin inside the
// window [from, to] (the QoS floor over the window), or -1 when nothing
// was sampled there.
func (r *Runner) windowViewMargin(from, to time.Duration) float64 {
	min := -1.0
	for _, v := range r.viewSeries.ValuesBetween(r.t0+from, r.t0+to) {
		if min < 0 || float64(v) < min {
			min = float64(v)
		}
	}
	return min
}

// runPrewrite executes the write phase: a throwaway system over a fresh
// store runs the prewrite fleet, stops, flushes its caches, and drains
// in-flight writes. The returned config carries the populated store into
// the measured system, and r.t0 shifts the whole measured schedule past
// the phase — the world-restart hook of the Fig. 13 read phase.
func (r *Runner) runPrewrite(cfg core.Config) core.Config {
	pw := r.spec.Prewrite
	sys := core.New(r.loop, cfg)
	cl := sys.Cluster
	var all []*cluster.Player
	for gi := range pw.Fleet {
		g := pw.Fleet[gi]
		gi := gi
		var members []*cluster.Player
		r.loop.At(g.JoinAt.D(), func() {
			for i := 0; i < g.Count; i++ {
				m := cl.ConnectAt(fmt.Sprintf("pre%d-%d", gi, i), workload.ForName(g.Behavior), g.Placement.resolve(cl))
				members = append(members, m)
				all = append(all, m)
			}
			r.logf("prewrite fleet[%d]: %d %q players joined", gi, g.Count, g.Behavior)
		})
		if g.LeaveAt != 0 {
			r.loop.At(g.LeaveAt.D(), func() {
				for _, m := range members {
					cl.Disconnect(m.ID)
				}
			})
		}
	}
	cl.Start()
	r.loop.RunUntil(pw.Duration.D())
	for _, m := range all {
		cl.Disconnect(m.ID) // persist player records
	}
	cl.Stop()
	for _, sh := range sys.Shards {
		if sh.Cache != nil {
			sh.Cache.Flush()
			// The throwaway system is about to be discarded; without this
			// its flusher closures would pin it in memory (and tick) for
			// the whole measured run.
			sh.Cache.StopFlusher()
		}
	}
	r.loop.RunUntil(pw.Duration.D() + prewriteDrain)
	r.t0 = pw.Duration.D() + prewriteDrain
	r.logf("prewrite complete: %d objects persisted; restarting world", sys.Remote.Len())
	cfg.Remote = sys.Remote
	return cfg
}

// placeConstructs activates count constructs of the given size on a grid
// near spawn. The pitch adapts to the construct footprint and every wave
// gets a fresh Z band, so construct storms never overlap earlier
// placements. Each construct lands on the shard owning its anchor.
func (r *Runner) placeConstructs(count, blocks int) {
	w, h := sc.BuildSized(blocks).Size()
	pitchX, pitchZ := scSpacing, scSpacing
	if w+3 > pitchX {
		pitchX = w + 3
	}
	if h+3 > pitchZ {
		pitchZ = h + 3
	}
	perRow := 210 / pitchX
	if perRow < 1 {
		perRow = 1
	}
	for i := 0; i < count; i++ {
		x := (i%perRow)*pitchX - 105
		z := r.scZ + (i/perRow)*pitchZ
		r.sys.Cluster.SpawnConstruct(sc.BuildSized(blocks), world.BlockPos{X: x, Y: 5, Z: z})
	}
	r.scZ += (count + perRow - 1) / perRow * pitchZ
}

// connect joins one player at the placement and tracks the concurrency
// peak and the join audit.
func (r *Runner) connect(name, behavior string, pl Placement) *cluster.Player {
	cl := r.sys.Cluster
	m := cl.ConnectAt(name, workload.ForName(behavior), pl.resolve(cl))
	r.joins++
	if n := cl.PlayerCount(); n > r.peak {
		r.peak = n
	}
	return m
}

// disconnect ends one measured session, counting confirmed leaves for
// the players_lost audit (a false Disconnect means the player had
// already vanished — the signal the audit counts).
func (r *Runner) disconnect(m *cluster.Player) {
	if r.sys.Cluster.Disconnect(m.ID) {
		r.leaves++
	}
}

// schedule queues every fleet join/leave, stress bot, and timed event on
// the virtual clock.
func (r *Runner) schedule() {
	spec := r.spec
	for gi := range spec.Fleet {
		g := spec.Fleet[gi]
		gi := gi
		var members []*cluster.Player
		r.at(g.JoinAt.D(), func() {
			for i := 0; i < g.Count; i++ {
				members = append(members, r.connect(fmt.Sprintf("fleet%d-%d", gi, i), g.Behavior, g.Placement))
			}
			r.logf("fleet[%d]: %d %q players joined", gi, g.Count, g.Behavior)
		})
		if g.LeaveAt != 0 {
			r.at(g.LeaveAt.D(), func() {
				for _, m := range members {
					r.disconnect(m)
				}
				r.logf("fleet[%d]: %d players left", gi, len(members))
			})
		}
	}
	if st := spec.Stress; st != nil {
		for i := 0; i < st.Bots; i++ {
			i := i
			joinAt := time.Duration(float64(st.Ramp.D()) * float64(i) / float64(st.Bots))
			r.at(joinAt, func() { r.runBot(i, st) })
		}
	}
	for i := range spec.Events {
		e := spec.Events[i]
		fire := findEvent(e.Kind).fire // Validate vetted the kind
		r.at(e.At.D(), func() { fire(r, e) })
	}
}

// pickBehavior draws a behavior name from the stress weights.
func (r *Runner) pickBehavior(st *StressSpec) string {
	names := make([]string, 0, len(st.Behaviors))
	for n := range st.Behaviors {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0.0
	for _, n := range names {
		total += st.Behaviors[n]
	}
	roll := r.hrng.Float64() * total
	for _, n := range names {
		roll -= st.Behaviors[n]
		if roll < 0 {
			return n
		}
	}
	return names[len(names)-1]
}

// runBot connects one stress bot (stable identity per index, so rejoins
// resume persisted player data) and, under churn, schedules its session
// end and eventual rejoin.
func (r *Runner) runBot(i int, st *StressSpec) {
	m := r.connect(fmt.Sprintf("bot-%d", i), r.pickBehavior(st), st.placeBot(i, r.spec.Shards))
	if st.Churn == nil {
		return
	}
	session := time.Duration(r.hrng.ExpFloat64() * float64(st.Churn.MeanSession.D()))
	r.loop.After(session, func() {
		r.disconnect(m)
		pause := time.Duration(r.hrng.ExpFloat64() * float64(st.Churn.MeanPause.D()))
		r.loop.After(pause, func() { r.runBot(i, st) })
	})
}

// run drives the scenario: warm up, reset measurement state, run the
// measured window, then collect the report.
func (r *Runner) run() *Report {
	spec := r.spec
	r.loop.RunUntil(r.t0 + spec.Warmup.D())
	r.snapshotBaseline()
	measured := int((spec.Duration - spec.Warmup).D() / mve.TickInterval)
	for _, sh := range r.sys.Shards {
		sh.Server.TickDurations = metrics.NewSample(measured)
		if m := sh.SpecExec; m != nil {
			m.Efficiency = nil
		}
	}
	if st := r.sys.Remote; st != nil {
		// Like the tick sample, storage latency percentiles are measured
		// over the post-warm-up window only (boot reads excluded).
		st.ReadLatency = metrics.Sample{}
	}
	// So are function latencies (Fig. 9's: cold starts and activation
	// invocations excluded).
	for _, fn := range []*faas.Function{r.sys.SCFn, r.sys.TGFn} {
		if fn != nil {
			fn.Latency = metrics.Sample{}
		}
	}
	r.sys.Cluster.HandoffLatency = metrics.NewSample(4096)
	r.logf("warm-up complete; measuring")
	r.loop.RunUntil(r.t0 + spec.Duration.D())
	r.sys.Cluster.Stop()
	ticks := 0
	for _, sh := range r.sys.Shards {
		ticks += sh.Server.TickDurations.Len()
	}
	r.logf("run complete: %d ticks measured across %d shard(s)", ticks, len(r.sys.Shards))
	if r.log != nil {
		r.sys.Cluster.WriteJournal(r.log)
	}
	return r.collect()
}

// windowTicks gathers per-tick durations from every shard inside the
// window [from, to] (relative to the measured scenario's start).
func (r *Runner) windowTicks(from, to time.Duration) *metrics.Sample {
	s := &metrics.Sample{}
	for _, sh := range r.sys.Shards {
		s.AddAll(sh.Server.TickSeries.ValuesBetween(r.t0+from, r.t0+to))
	}
	return s
}

// windowImbalance recomputes load_imbalance (max/mean of per-shard mean
// tick duration) over the window [from, to]: the assertion hook showing
// imbalance spiking after a hotspot event and decreasing once the
// controller rebalanced. Shards with no ticks in the window (e.g. dead
// during a failover) are excluded.
func (r *Runner) windowImbalance(from, to time.Duration) float64 {
	var loads []float64
	for _, sh := range r.sys.Shards {
		s := &metrics.Sample{}
		s.AddAll(sh.Server.TickSeries.ValuesBetween(r.t0+from, r.t0+to))
		if s.Len() == 0 {
			continue
		}
		loads = append(loads, float64(s.Mean()))
	}
	return metrics.ImbalanceRatio(loads)
}

// collect reads the metric table, evaluates assertions, and assembles the
// deterministic report.
func (r *Runner) collect() *Report {
	spec := r.spec
	rep := &Report{Name: spec.Name, Virtual: spec.Duration.D(), Pass: true}
	for i, sh := range r.sys.Shards {
		times, durs := sh.Server.TickSeries.Points()
		series := ShardSeries{Shard: i, Ticks: make([]TickPoint, len(times))}
		for j := range times {
			series.Ticks[j] = TickPoint{At: times[j], Dur: durs[j]}
		}
		rep.Series = append(rep.Series, series)
	}
	// The control-plane sections belong to scenarios that ask for more
	// than one shard; a one-shard report carries none of them.
	if needsCluster.has(spec) {
		cl := r.sys.Cluster
		rep.TileLoads = cl.TileLoads()
		times, counts := cl.ShardsActive.Points()
		for j := range times {
			rep.ScaleSeries = append(rep.ScaleSeries, ScalePoint{At: times[j], Count: int(counts[j])})
		}
		for _, ev := range cl.Journal.Records() {
			if ev.Kind.Scale() {
				rep.ScaleEvents = append(rep.ScaleEvents, ev)
			}
		}
	}
	rep.Metrics = r.collectMetrics()
	for _, a := range spec.Assertions {
		c := r.check(a, rep.Metrics)
		if !c.Ok {
			rep.Pass = false
		}
		rep.Checks = append(rep.Checks, c)
	}
	return rep
}

// flipStore switches the server's chunk/player store between the
// serverless stack and a local-disk-class store at runtime (the
// flip_storage event). Chunks absent from the newly active side simply
// regenerate through the normal terrain path.
type flipStore struct {
	serverless, local mve.ChunkStore
	useLocal          bool
}

var (
	_ mve.ChunkStore         = (*flipStore)(nil)
	_ mve.BatchingChunkStore = (*flipStore)(nil)
	_ mve.PlayerStore        = (*flipStore)(nil)
	_ mve.AvatarObserver     = (*flipStore)(nil)
	_ mve.CachingChunkStore  = (*flipStore)(nil)
)

func (f *flipStore) cur() mve.ChunkStore {
	if f.useLocal {
		return f.local
	}
	return f.serverless
}

func (f *flipStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) { f.cur().Load(pos, cb) }
func (f *flipStore) Store(c *world.Chunk)                                 { f.cur().Store(c) }

// LoadMany forwards a batched load to whichever side is active, falling
// back to per-position loads if that side has no batch path.
func (f *flipStore) LoadMany(pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	cur := f.cur()
	if bs, ok := cur.(mve.BatchingChunkStore); ok {
		bs.LoadMany(pos, cb)
		return
	}
	for _, cp := range pos {
		cp := cp
		cur.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// ForgetWhere forwards to both sides: either may have cached chunks a
// gained tile holds.
func (f *flipStore) ForgetWhere(pred func(world.ChunkPos) bool) {
	for _, s := range []mve.ChunkStore{f.serverless, f.local} {
		if cs, ok := s.(mve.CachingChunkStore); ok {
			cs.ForgetWhere(pred)
		}
	}
}

// FlushWhere forwards to both sides, either of which may hold unflushed
// writes of a lost tile, and calls done once both have landed.
func (f *flipStore) FlushWhere(pred func(world.ChunkPos) bool, done func()) {
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	for _, s := range []mve.ChunkStore{f.serverless, f.local} {
		if cs, ok := s.(mve.CachingChunkStore); ok {
			pending++
			cs.FlushWhere(pred, finish)
		}
	}
	finish()
}

func (f *flipStore) SavePlayer(name string, data []byte) {
	if ps, ok := f.cur().(mve.PlayerStore); ok {
		ps.SavePlayer(name, data)
	}
}

func (f *flipStore) LoadPlayer(name string, cb func([]byte, bool)) {
	if ps, ok := f.cur().(mve.PlayerStore); ok {
		ps.LoadPlayer(name, cb)
		return
	}
	cb(nil, false)
}

func (f *flipStore) ObserveAvatars(positions []world.BlockPos, viewDistance int) {
	if o, ok := f.cur().(mve.AvatarObserver); ok {
		o.ObserveAvatars(positions, viewDistance)
	}
}
