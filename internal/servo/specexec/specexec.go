// Package specexec implements Servo's speculative execution unit for
// simulated constructs — the paper's core contribution (§III-C).
//
// Each active construct is simulated twice: locally on the game server (at
// the fixed tick rate) and remotely in a serverless function (as fast as
// the function can run, working ahead speculatively). The unit:
//
//   - offloads each construct to a FaaS function that returns a sequence
//     of future states;
//   - keeps simulating locally until speculative results arrive, hiding
//     (cold-start) latency from players;
//   - switches to applying buffered speculative states once they are
//     available, making the per-tick cost a cheap state merge instead of a
//     full simulation step;
//   - re-invokes the function `tick lead` ticks before the buffer runs
//     out, so that back-to-back invocations overlap with consumption and
//     efficiency approaches 1.0 (Fig. 8);
//   - tags every request with a logical modification timestamp and
//     discards replies whose timestamp is stale (player interactions
//     invalidate in-flight speculation);
//   - replays detected state loops indefinitely at near-zero cost
//     (§III-C1) until the construct is modified.
//
// The observable state sequence is *identical* to pure local simulation —
// speculation only changes where the work happens. Property tests assert
// this invariant.
package specexec

import (
	"fmt"
	"slices"
	"time"

	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/sc"
)

// Config tunes the execution unit.
type Config struct {
	// TickLead is how many ticks before buffer exhaustion the next
	// invocation is issued (paper Fig. 8: 0 → median efficiency 0.84;
	// ≥ 10 → efficiency 1.0).
	TickLead int
	// StepsPerInvocation is the number of simulation steps each function
	// invocation computes (Fig. 8/9 sweep: 50, 100, 200).
	StepsPerInvocation int
	// DetectLoops enables the loop-detection cost optimisation (§III-C1).
	DetectLoops bool
}

// DefaultConfig matches the paper's best-performing configuration: 20-tick
// lead, 100-step invocations, loop detection on.
func DefaultConfig() Config {
	return Config{TickLead: 20, StepsPerInvocation: 100, DetectLoops: true}
}

// TickSource abstracts invocation of the remote simulation function; it is
// satisfied by *faas.Platform.
type TickSource interface {
	Invoke(name string, payload []byte, cb func(faas.Invocation))
}

// managed is the unit's bookkeeping for one construct.
type managed struct {
	id        uint64
	construct *sc.Construct // authoritative state at the last executed tick
	version   uint64        // logical modification timestamp

	// Speculative buffer: states for ticks bufBase+1 .. bufBase+len(buf).
	bufBase uint64
	buf     []sc.StateVector
	// Loop replay (§III-C1): when set, states repeat with loop.Period
	// starting at buffer index loop.EntryIndex.
	loop *sc.LoopInfo

	inFlight      bool
	flightVersion uint64
	flightBase    uint64 // base tick of the in-flight request
	flightSteps   int
	localDuring   int // local steps executed while this flight was pending
}

// Stats aggregates the unit's counters for experiment reports.
type Stats struct {
	LocalSteps   int64 // steps simulated on the server (fallback path)
	RemoteSteps  int64 // steps applied from speculative buffers
	ReplaySteps  int64 // steps served by loop replay
	Discarded    int64 // replies dropped due to version mismatch
	LoopsActive  int   // constructs currently in loop replay
	ConstructCnt int
}

// Manager is the speculative execution unit. It is not safe for concurrent
// use; the game loop owns it.
type Manager struct {
	platform TickSource
	fnName   string
	cfg      Config

	// constructs is the look-up by id; order holds the same constructs in
	// insertion order, and every loop over them walks it.
	constructs map[uint64]*managed
	order      []*managed
	nextID     uint64
	tick       uint64

	// Efficiency records per-invocation efficiency (paper §III-C): the
	// fraction of delivered steps the server did not have to simulate
	// locally.
	Efficiency []float64
	// Discards counts replies dropped unapplied: stale (a player modified
	// the construct after the request left) or undecodable.
	Discards metrics.Counter

	stats Stats
}

// NewManager returns a unit that offloads constructs to the named function
// on platform. A StepsPerInvocation above sc.MaxSteps panics: the function
// would refuse every request.
func NewManager(platform TickSource, fnName string, cfg Config) *Manager {
	if cfg.StepsPerInvocation <= 0 {
		cfg.StepsPerInvocation = DefaultConfig().StepsPerInvocation
	}
	if cfg.StepsPerInvocation > sc.MaxSteps {
		panic(fmt.Sprintf("specexec: %d steps per invocation, above sc.MaxSteps (%d)", cfg.StepsPerInvocation, sc.MaxSteps))
	}
	if cfg.TickLead < 0 {
		cfg.TickLead = 0
	}
	return &Manager{
		platform:   platform,
		fnName:     fnName,
		cfg:        cfg,
		constructs: make(map[uint64]*managed),
	}
}

// Add registers an activated construct and returns its id. The construct
// is owned by the manager from this point on; read it via Construct.
func (m *Manager) Add(c *sc.Construct) uint64 {
	m.nextID++
	id := m.nextID
	mc := &managed{id: id, construct: c, bufBase: m.tick}
	m.constructs[id] = mc
	m.order = append(m.order, mc)
	// Offload immediately: the server simulates locally until the first
	// reply arrives (paper Fig. 6).
	m.invoke(mc)
	return id
}

// Remove deactivates a construct (e.g. its terrain was unloaded).
// slices.Delete clears the vacated tail slot, so the order's backing array
// does not keep the removed construct reachable.
func (m *Manager) Remove(id uint64) {
	mc, ok := m.constructs[id]
	if !ok {
		return
	}
	delete(m.constructs, id)
	if i := slices.Index(m.order, mc); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// Len returns the number of managed constructs.
func (m *Manager) Len() int { return len(m.constructs) }

// Modify applies a player modification to a construct: the mutation runs
// against the authoritative state, the logical timestamp is bumped, and all
// speculative state (buffer, loop, in-flight replies) is invalidated
// (paper §III-C).
func (m *Manager) Modify(id uint64, mutate func(*sc.Construct)) bool {
	mc := m.constructs[id]
	if mc == nil {
		return false
	}
	mutate(mc.construct)
	mc.version++
	mc.buf = nil
	mc.bufBase = m.tick
	mc.loop = nil
	// A new invocation from the modified state; the in-flight reply (if
	// any) will be discarded by its stale version.
	m.invoke(mc)
	return true
}

// TickWork reports the work performed by one game tick of the unit.
type TickWork struct {
	// WorkUnits is the total simulation work the server performed.
	WorkUnits int
	// LocalSteps and AppliedSteps split the constructs between fallback
	// local simulation and speculative application.
	LocalSteps, AppliedSteps, ReplaySteps int
}

// applyCostDivisor scales the cost of merging a speculative state relative
// to simulating the step locally: the model charges applying a precomputed
// state vector as a copy, roughly 20× cheaper than the BFS power
// propagation of a real step. Calibrated against Fig. 7b (Servo's tick box
// sits near Opencraft's p25). SetState no longer copies, but the charge
// stays a copy's on purpose: work units set the modelled tick, and every
// report and figure is pinned to them.
const applyCostDivisor = 20

// Tick advances every managed construct by one game tick. For each
// construct the unit prefers, in order: loop replay, buffered speculative
// state, local simulation (fallback). It also issues refresh invocations
// for buffers within TickLead of exhaustion.
func (m *Manager) Tick() TickWork {
	m.tick++
	var w TickWork
	for _, mc := range m.order {
		w.add(m.tickConstruct(mc))
	}
	return w
}

func (w *TickWork) add(o TickWork) {
	w.WorkUnits += o.WorkUnits
	w.LocalSteps += o.LocalSteps
	w.AppliedSteps += o.AppliedSteps
	w.ReplaySteps += o.ReplaySteps
}

func (m *Manager) tickConstruct(mc *managed) TickWork {
	var w TickWork
	idx := int(m.tick) - int(mc.bufBase) - 1
	replay := false
	if mc.loop != nil && idx >= len(mc.buf) && len(mc.buf) > 0 {
		// Loop replay (§III-C1): the state cycles; map the tick into the
		// recorded window. idx ≥ len(buf) ≥ EntryIndex+Period here.
		li := mc.loop
		idx = li.EntryIndex + (idx-li.EntryIndex)%li.Period
		replay = true
	}
	if idx >= 0 && idx < len(mc.buf) {
		// Speculative (or replayed) state available for this tick:
		// applying it is a cheap state merge instead of a full step.
		if err := mc.construct.SetState(mc.buf[idx]); err == nil {
			w.WorkUnits += estimateStepWork(mc.construct)/applyCostDivisor + 1
			if replay {
				w.ReplaySteps++
				m.stats.ReplaySteps++
			} else {
				w.AppliedSteps++
				m.stats.RemoteSteps++
				m.maybeRefresh(mc)
			}
			return w
		}
		// Layout changed without invalidation (defensive): drop all
		// speculation and fall back to local simulation.
		mc.buf, mc.loop = nil, nil
		mc.bufBase = m.tick - 1
	}
	// Fallback: local simulation at tick rate (paper Fig. 6).
	w.WorkUnits += mc.construct.Step()
	w.LocalSteps++
	m.stats.LocalSteps++
	if mc.inFlight {
		mc.localDuring++
	}
	// The local step advanced past any stale buffer prefix.
	m.consumeBufferPrefix(mc)
	m.maybeRefresh(mc)
	return w
}

// consumeBufferPrefix drops buffered states that are now in the past.
func (m *Manager) consumeBufferPrefix(mc *managed) {
	past := int(m.tick) - int(mc.bufBase)
	if past <= 0 || len(mc.buf) == 0 {
		return
	}
	if past >= len(mc.buf) {
		mc.bufBase += uint64(len(mc.buf))
		mc.buf = nil
		return
	}
	mc.buf = mc.buf[past:]
	mc.bufBase += uint64(past)
}

// maybeRefresh issues the next invocation when the buffer is within
// TickLead ticks of exhaustion (paper §III-C: "invoking further speculative
// execution several steps before the results are needed").
func (m *Manager) maybeRefresh(mc *managed) {
	if mc.inFlight || mc.loop != nil {
		return
	}
	remaining := int(mc.bufBase) + len(mc.buf) - int(m.tick)
	if remaining > m.cfg.TickLead {
		return
	}
	m.invoke(mc)
}

// invoke offloads the construct from the end of its known-state horizon:
// the last buffered state if any, else the current authoritative state
// (Fig. 6: "the second speculative execution can start at time 6, but
// simulate starting at state 8").
func (m *Manager) invoke(mc *managed) {
	if mc.inFlight {
		return
	}
	var base sc.StateVector // nil: the authoritative state
	baseTick := m.tick
	if len(mc.buf) > 0 {
		base = mc.buf[len(mc.buf)-1]
		baseTick = mc.bufBase + uint64(len(mc.buf))
	}
	req := Request{
		ConstructID: mc.id,
		Version:     mc.version,
		BaseTick:    baseTick,
		Steps:       uint32(m.cfg.StepsPerInvocation),
		DetectLoops: m.cfg.DetectLoops,
	}
	// The layout is encoded after the header in place: the construct's
	// wiring with the base state, the construct itself untouched.
	payload, err := mc.construct.AppendLayout(appendRequestHeader(make([]byte, 0, requestHeaderLen), req), base)
	if err != nil {
		return
	}
	mc.inFlight = true
	mc.flightVersion = mc.version
	mc.flightBase = baseTick
	mc.flightSteps = m.cfg.StepsPerInvocation
	mc.localDuring = 0
	m.platform.Invoke(m.fnName, payload, func(inv faas.Invocation) {
		m.onReply(mc.id, inv)
	})
}

// onReply integrates a function reply: stale versions are discarded
// (§III-C), fresh state sequences extend the speculative buffer, and the
// invocation's efficiency is recorded.
func (m *Manager) onReply(id uint64, inv faas.Invocation) {
	mc := m.constructs[id]
	if mc == nil {
		return // construct removed while in flight
	}
	mc.inFlight = false
	if inv.Err != nil {
		m.maybeRefresh(mc)
		return
	}
	reply, err := DecodeReply(inv.Response)
	if err != nil || reply.Version != mc.version {
		// Stale speculation: a player modified the construct after the
		// request was sent. Drop it and start over from current state.
		m.Discards.Inc()
		m.stats.Discarded++
		m.invoke(mc)
		return
	}
	delivered := len(reply.States)
	if delivered == 0 {
		return
	}
	// Steps the server already executed locally while waiting are wasted
	// remote work: efficiency = (delivered - wasted) / delivered.
	wasted := int(m.tick) - int(reply.BaseTick)
	if wasted < 0 {
		wasted = 0
	}
	if wasted > delivered {
		wasted = delivered
	}
	m.Efficiency = append(m.Efficiency, float64(delivered-wasted)/float64(delivered))

	// Install the sequence. Two cases:
	//
	//   - contiguous with the existing buffer (the request was issued
	//     from the buffer's last state, the tick-lead path): append, and
	//     rebase any loop entry index onto the merged buffer;
	//   - otherwise (first invocation, or the server out-ran a stale
	//     buffer): replace the buffer, keeping the full window when a
	//     loop was found (replay needs the whole cycle) and trimming the
	//     locally re-simulated prefix when not.
	contiguous := len(mc.buf) > 0 && reply.BaseTick == mc.bufBase+uint64(len(mc.buf))
	if reply.Loop != nil {
		if contiguous {
			mc.loop = &sc.LoopInfo{
				EntryIndex: len(mc.buf) + reply.Loop.EntryIndex,
				Period:     reply.Loop.Period,
			}
			mc.buf = append(mc.buf, reply.States...)
		} else {
			mc.buf = reply.States
			mc.bufBase = reply.BaseTick
			mc.loop = reply.Loop
		}
		return
	}
	if contiguous {
		mc.buf = append(mc.buf, reply.States...)
		m.maybeRefresh(mc)
		return
	}
	if wasted >= delivered {
		// Entirely stale; go again from the newest state.
		m.maybeRefresh(mc)
		return
	}
	mc.buf = reply.States[wasted:]
	mc.bufBase = reply.BaseTick + uint64(wasted)
	m.maybeRefresh(mc)
}

// estimateStepWork approximates the work of one local simulation step
// without executing it (grid scan plus typical propagation). It costs
// nothing to compute: the construct keeps its block count.
func estimateStepWork(c *sc.Construct) int {
	w, h := c.Size()
	return w*h + c.BlockCount()*2
}

// Snapshot returns a snapshot of the unit's counters.
func (m *Manager) Snapshot() Stats {
	s := m.stats
	s.ConstructCnt = len(m.constructs)
	for _, mc := range m.order {
		if mc.loop != nil {
			s.LoopsActive++
		}
	}
	return s
}

// MedianEfficiency returns the median per-invocation efficiency, or -1 if
// no invocations completed.
func (m *Manager) MedianEfficiency() float64 {
	if len(m.Efficiency) == 0 {
		return -1
	}
	s := metrics.NewSample(len(m.Efficiency))
	for _, e := range m.Efficiency {
		s.Add(time.Duration(e * 1e9))
	}
	return float64(s.Percentile(50)) / 1e9
}
