// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Servo experiments run on virtual time: a Loop owns a monotonically
// increasing virtual clock and an event queue. Scheduling an event never
// blocks; Run drains events in timestamp order (FIFO among equal
// timestamps), advancing the clock instantaneously between events. Combined
// with a seeded random source, this makes every experiment bit-for-bit
// reproducible and lets a ten-minute (virtual) experiment complete in
// milliseconds of wall time.
//
// The same engine can be driven by the wall clock through RealClock, which
// is what cmd/servo-server uses for interactive play.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, expressed as the duration since the
// simulation epoch (t=0).
type Time = time.Duration

// Clock abstracts the scheduling surface shared by the virtual event loop
// and the real-time adapter. Components written against Clock run
// unmodified in experiments and in the live server.
type Clock interface {
	// Now returns the current (virtual or wall) time since the epoch.
	Now() Time
	// After schedules fn to run d after Now. d < 0 is treated as 0.
	After(d time.Duration, fn func())
	// RNG returns the deterministic random source owned by this clock.
	// It must only be used from event callbacks (single-threaded).
	RNG() *rand.Rand
}

// event is a single scheduled callback.
type event struct {
	at   Time
	seq  uint64     // tie-breaker: FIFO among events with equal timestamps
	lane *laneState // execution lane; nil = serial (see lane.go)
	fn   func()
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Loop is a virtual-time event loop. It drains events one timestamp at a
// time: lane-less events run serially in (timestamp, seq) order, and
// same-timestamp events on distinct lanes run concurrently on a pool of
// SetWorkers goroutines (see lane.go). A loop with fewer than two lanes is
// single-threaded.
// The zero value is not usable; construct with NewLoop.
type Loop struct {
	now   Time
	seq   uint64
	queue eventQueue
	rng   *rand.Rand
	seed  int64

	// Lane-batched execution state (see lane.go).
	workers int
	lanes   map[int]*laneState
	sem     chan struct{}
	batch   []*event
	groups  []*laneState
	stats   BatchStats

	// free recycles executed events back into push, so a steady-state
	// schedule (e.g. a game loop rescheduling itself every tick) runs
	// without a heap allocation per event.
	free []*event
}

var _ Clock = (*Loop)(nil)

// NewLoop returns a Loop at time 0 whose random source is seeded with seed.
func NewLoop(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// RNG returns the loop's deterministic random source.
func (l *Loop) RNG() *rand.Rand { return l.rng }

// At schedules fn at absolute virtual time t. Times in the past run at the
// current time (they are clamped to Now).
func (l *Loop) At(t Time, fn func()) { l.push(nil, t, fn) }

// push schedules fn at t on lane (nil: serial), clamping past times to Now.
func (l *Loop) push(lane *laneState, t Time, fn func()) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	var e *event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		e = new(event)
	}
	*e = event{at: t, seq: l.seq, lane: lane, fn: fn}
	heap.Push(&l.queue, e)
}

// recycle returns an executed event to the freelist, dropping its
// callback reference so the closure can be collected.
func (l *Loop) recycle(e *event) {
	e.fn = nil
	l.free = append(l.free, e)
}

// After schedules fn to run d after the current virtual time.
func (l *Loop) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	l.At(l.now+d, fn)
}

// popEvent pops the earliest (at, seq) event.
func popEvent(q *eventQueue) *event { return heap.Pop(q).(*event) }

// RunUntil executes events until the queue is empty or the next event is
// strictly after deadline. The clock is left at the time of the last
// executed event (or at deadline if it advanced past all events).
func (l *Loop) RunUntil(deadline Time) {
	for len(l.queue) > 0 && l.queue[0].at <= deadline {
		l.StepBatch()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for l.StepBatch() {
	}
}
