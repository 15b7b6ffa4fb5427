// Lane-keyed parallel scheduling for the virtual-time Loop.
//
// A lane is an independent execution track (one per cluster shard): all
// events sharing a timestamp but carrying distinct lanes may execute
// concurrently on a bounded worker pool, while lane-less events (lane 0,
// everything scheduled through the plain Clock surface) keep the strict
// serial order of the classic Loop and act as barriers between waves.
//
// Determinism contract: the observable event stream — execution order of
// callbacks within a lane, RNG draw sequences, and the order in which
// deferred side effects reach shared state — is a pure function of the
// seed and the schedule, independent of the worker-pool size. `-workers 1`
// and `-workers N` produce byte-identical runs because:
//
//   - events within one lane always run serially, in (timestamp, seq)
//     order, on a single goroutine per wave;
//   - each lane owns a private RNG stream derived from the root seed and
//     the lane id, so draws never interleave across lanes;
//   - side effects that touch shared substrate are not executed in the
//     wave at all: lane code wraps them in Commit, and the Loop drains
//     the per-lane commit buffers on the loop thread in ascending lane
//     order after the wave barrier;
//   - events scheduled from inside a wave are buffered per lane and
//     pushed onto the heap in the same ascending lane order, so sequence
//     numbers (the FIFO tie-breaker) are assigned deterministically.
//
// A loop with fewer than two lanes has nothing to overlap: StepBatch runs
// its events one by one on the loop thread in (timestamp, seq) order, a
// one-lane wave still buffering its schedule requests and commits to the
// barrier, and skips the wall-clock reads behind BatchStats.
package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// deferred is an event scheduled from inside a wave, held back until the
// barrier so heap sequence numbers stay deterministic.
type deferred struct {
	at Time
	fn func()
}

// laneState is the Loop-owned state of one lane. It survives the clock
// wrappers handed out by Lane: re-requesting a lane (e.g. when a crashed
// shard is rebuilt) continues the same RNG stream.
type laneState struct {
	id  int
	rng *rand.Rand

	// active is true while the lane is executing inside a wave; it is
	// written by the loop thread before the wave's goroutine starts and
	// after the barrier, so the lane's own goroutine reads it race-free.
	active bool

	// Reused wave after wave, each slot dropped once it has run: a lane
	// outlives its closures, and a stale slot would pin what they captured
	// (a stopped server and every chunk it holds) while the loop lives.
	wave    []func()   // callbacks of the current wave, in seq order
	pending []deferred // schedule requests made during the wave
	commits []func()   // deferred shared-substrate side effects
	busy    int64      // wall ns spent executing the current wave
}

// BatchStats accumulates the work/span profile of batch execution: WorkNs
// is the total wall time spent inside event callbacks, SpanNs the
// critical path (serial segments plus the longest lane of each wave).
// Work/Span is the speedup the lane schedule exposes — the wall speedup
// an adequately-cored machine realises.
type BatchStats struct {
	WorkNs int64
	SpanNs int64
}

// Speedup returns the work/span ratio (1 when nothing was measured).
func (s BatchStats) Speedup() float64 {
	if s.SpanNs <= 0 {
		return 1
	}
	return float64(s.WorkNs) / float64(s.SpanNs)
}

// Committer is the deferred-side-effect surface of lane-aware clocks.
// Code holding a plain Clock uses the package-level Commit helper, which
// degrades to an immediate call on non-lane clocks.
type Committer interface {
	// Commit runs fn now when called from serial context, or defers it
	// to the post-wave drain (loop thread, ascending lane order) when
	// called from inside a wave.
	Commit(fn func())
}

// Commit runs fn through clock's commit buffer when the clock has one,
// and immediately otherwise. Lane code must route every side effect that
// touches state shared across lanes (blob store, FaaS platform, cluster
// counters and logs) through Commit; on a plain Clock this is a direct
// call.
func Commit(clock Clock, fn func()) {
	if c, ok := clock.(Committer); ok {
		c.Commit(fn)
		return
	}
	fn()
}

// LaneClock is a Clock view of one lane of a Loop. Components constructed
// against it schedule lane-tagged events and draw from the lane's private
// RNG stream; from inside a wave, scheduling is buffered until the
// barrier.
type LaneClock struct {
	loop *Loop
	ls   *laneState
}

var (
	_ Clock     = (*LaneClock)(nil)
	_ Committer = (*LaneClock)(nil)
)

// Lane returns the clock of the given lane (> 0; lane 0 is the serial
// lane every plain Loop event runs on). The lane's RNG stream is derived
// from the loop seed and the lane id, and persists across calls.
func (l *Loop) Lane(id int) *LaneClock {
	if id <= 0 {
		panic("sim: lane ids must be > 0 (0 is the serial lane)")
	}
	ls := l.lanes[id]
	if ls == nil {
		if l.lanes == nil {
			l.lanes = make(map[int]*laneState)
		}
		ls = &laneState{id: id, rng: rand.New(rand.NewSource(laneSeed(l.seed, id)))}
		l.lanes[id] = ls
	}
	return &LaneClock{loop: l, ls: ls}
}

// laneSeed derives the RNG seed of a lane from the root seed: a
// splitmix64-style finalizer so adjacent lane ids get uncorrelated
// streams.
func laneSeed(seed int64, lane int) int64 {
	z := uint64(seed) + uint64(lane)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Now implements Clock. The loop's clock is fixed for the duration of a
// batch, so reading it from a wave goroutine is race-free.
func (c *LaneClock) Now() Time { return c.loop.now }

// RNG implements Clock: the lane's private deterministic stream.
func (c *LaneClock) RNG() *rand.Rand { return c.ls.rng }

// After implements Clock: the event carries this lane's tag. From inside
// a wave the request is buffered and pushed at the barrier so sequence
// numbers are assigned in deterministic lane order.
func (c *LaneClock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if c.ls.active {
		c.ls.pending = append(c.ls.pending, deferred{at: c.loop.now + d, fn: fn})
		return
	}
	c.loop.push(c.ls, c.loop.now+d, fn)
}

// Commit implements Committer.
func (c *LaneClock) Commit(fn func()) {
	if c.ls.active {
		c.ls.commits = append(c.ls.commits, fn)
		return
	}
	fn()
}

// SetWorkers sizes the goroutine pool waves run on; 0 (the default)
// means 1. Every size produces identical runs — the pool size only
// changes wall time.
func (l *Loop) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	l.workers = n
}

// Workers returns the configured pool size.
func (l *Loop) Workers() int { return l.workers }

// BatchStats returns the accumulated work/span profile of StepBatch
// execution since the last reset: zero on a loop with under two lanes.
func (l *Loop) BatchStats() BatchStats { return l.stats }

// ResetBatchStats clears the work/span profile.
func (l *Loop) ResetBatchStats() { l.stats = BatchStats{} }

// StepBatch executes every event scheduled at the earliest pending
// timestamp, advancing the clock to it. Maximal consecutive runs of
// lane-tagged events (in seq order) form waves that execute concurrently
// across lanes — serially within each lane — on the worker pool;
// lane-less events execute alone, in their seq position, as barriers.
// It reports whether any event was executed.
func (l *Loop) StepBatch() bool {
	if len(l.queue) == 0 {
		return false
	}
	t := l.queue[0].at
	l.now = t
	batch := l.batch[:0]
	for len(l.queue) > 0 && l.queue[0].at == t {
		batch = append(batch, popEvent(&l.queue))
	}
	for i := 0; i < len(batch); {
		if batch[i].lane == nil {
			d := l.timed(batch[i].fn)
			l.stats.WorkNs += d
			l.stats.SpanNs += d
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].lane != nil {
			j++
		}
		l.runWave(batch[i:j])
		i = j
	}
	for i := range batch {
		l.recycle(batch[i])
		batch[i] = nil
	}
	l.batch = batch[:0]
	return true
}

// timed runs fn and returns the wall ns it took — 0, untimed, on a loop
// with fewer than two lanes: nothing can overlap there, so there is no
// work/span profile, and two clock reads are a measurable share of a
// cheap callback.
func (l *Loop) timed(fn func()) int64 {
	if len(l.lanes) < 2 {
		fn()
		return 0
	}
	start := time.Now()
	fn()
	return time.Since(start).Nanoseconds()
}

// runWave executes one maximal run of lane-tagged events — one lane's on
// the loop thread, several lanes' concurrently (each serially, on its own
// goroutine, the pool bounding how many at once) — then drains each
// lane's buffered schedule requests and commits in ascending lane order.
func (l *Loop) runWave(run []*event) {
	groups := l.groups[:0]
	for _, e := range run {
		ls := e.lane
		if !ls.active {
			ls.active = true
			ls.busy = 0
			groups = append(groups, ls)
		}
		ls.wave = append(ls.wave, e.fn)
	}
	if len(groups) == 1 {
		groups[0].busy = l.timed(groups[0].run)
	} else {
		if pool := max(l.workers, 1); cap(l.sem) != pool {
			l.sem = make(chan struct{}, pool)
		}
		var wg sync.WaitGroup
		wg.Add(len(groups))
		for _, g := range groups {
			go func() {
				l.sem <- struct{}{}
				g.busy = l.timed(g.run)
				<-l.sem
				wg.Done()
			}()
		}
		wg.Wait()
		slices.SortFunc(groups, func(a, b *laneState) int { return cmp.Compare(a.id, b.id) })
	}

	var span int64
	for _, g := range groups {
		// Flip before draining: pendings and commits issued from the
		// drains themselves run in serial context (immediately).
		g.active = false
		l.stats.WorkNs += g.busy
		if g.busy > span {
			span = g.busy
		}
	}
	l.stats.SpanNs += span
	for _, g := range groups {
		g.wave = g.wave[:0]
		for i, p := range g.pending {
			l.push(g, p.at, p.fn)
			g.pending[i].fn = nil
		}
		g.pending = g.pending[:0]
		for i, fn := range g.commits {
			fn()
			g.commits[i] = nil
		}
		g.commits = g.commits[:0]
	}
	l.groups = groups[:0]
}

// run runs the lane's share of the current wave, in seq order.
func (ls *laneState) run() {
	for i, fn := range ls.wave {
		fn()
		ls.wave[i] = nil
	}
}
