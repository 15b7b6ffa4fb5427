package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// laneTrace runs a small cross-lane workload at the given pool size and
// returns the observable event stream: the order in which commits reach
// the (shared) trace, with per-lane RNG draws baked into the entries.
func laneTrace(workers int) []string {
	l := NewLoop(42)
	l.SetWorkers(workers)
	var trace []string
	const lanes = 4
	for id := 1; id <= lanes; id++ {
		id := id
		lc := l.Lane(id)
		var tick func()
		ticks := 0
		tick = func() {
			ticks++
			draw := lc.RNG().Intn(1000)
			step := ticks
			lc.Commit(func() {
				trace = append(trace, fmt.Sprintf("lane%d tick%d draw%d", id, step, draw))
			})
			if ticks < 5 {
				lc.After(10*time.Millisecond, tick)
			}
		}
		lc.After(10*time.Millisecond, tick)
	}
	// A serial barrier event interleaved with the waves.
	l.After(25*time.Millisecond, func() {
		trace = append(trace, fmt.Sprintf("serial draw%d", l.RNG().Intn(1000)))
	})
	l.Run()
	return trace
}

func TestLaneRunsAreIdenticalAcrossPoolSizes(t *testing.T) {
	base := laneTrace(1)
	if len(base) == 0 {
		t.Fatal("trace is empty")
	}
	for _, workers := range []int{2, 4, 16} {
		got := laneTrace(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d produced %d entries, workers=1 produced %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d diverged at entry %d: %q vs %q", workers, i, got[i], base[i])
			}
		}
	}
}

func TestLaneCommitsDrainInLaneOrder(t *testing.T) {
	l := NewLoop(1)
	l.SetWorkers(4)
	var order []int
	for _, id := range []int{3, 1, 2} { // scheduled out of lane order
		id := id
		lc := l.Lane(id)
		lc.After(time.Millisecond, func() {
			lc.Commit(func() { order = append(order, id) })
		})
	}
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("commit order = %v, want %v", order, want)
		}
	}
}

func TestLaneSerialEventsActAsBarriers(t *testing.T) {
	l := NewLoop(1)
	l.SetWorkers(4)
	var order []string
	// Same timestamp: lane events before and after a serial event in
	// seq order. The serial event must run between the two waves.
	l.Lane(1).After(0, func() { l.Lane(1).Commit(func() { order = append(order, "wave1") }) })
	l.After(0, func() { order = append(order, "serial") })
	l.Lane(2).After(0, func() { l.Lane(2).Commit(func() { order = append(order, "wave2") }) })
	l.Run()
	want := []string{"wave1", "serial", "wave2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLaneRNGStreamsAreIndependent(t *testing.T) {
	// Lane 2's draw sequence must not depend on how much lane 1 draws.
	draws := func(lane1Draws int) []int {
		l := NewLoop(7)
		l.SetWorkers(1)
		l.Lane(1).After(0, func() {
			for i := 0; i < lane1Draws; i++ {
				l.Lane(1).RNG().Int63()
			}
		})
		var out []int
		l.Lane(2).After(0, func() {
			for i := 0; i < 8; i++ {
				out = append(out, l.Lane(2).RNG().Intn(1<<20))
			}
		})
		l.Run()
		return out
	}
	a, b := draws(0), draws(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lane 2 stream shifted by lane 1 draws at %d: %v vs %v", i, a, b)
		}
	}
}

func TestLaneStateSurvivesReacquisition(t *testing.T) {
	// Re-requesting a lane (shard recovery) must continue the same RNG
	// stream rather than reseed it.
	l := NewLoop(5)
	first := l.Lane(3).RNG().Int63()
	second := l.Lane(3).RNG().Int63()
	if first == second {
		t.Fatal("stream did not advance")
	}
	l2 := NewLoop(5)
	if got := l2.Lane(3).RNG().Int63(); got != first {
		t.Fatalf("fresh loop lane stream = %d, want %d", got, first)
	}
	if got := l2.Lane(3).RNG().Int63(); got != second {
		t.Fatalf("reacquired lane stream = %d, want %d (reseeded?)", got, second)
	}
}

func TestLanePendingEventsKeepFIFOWithinLane(t *testing.T) {
	l := NewLoop(1)
	l.SetWorkers(3)
	var got []int
	lc := l.Lane(1)
	lc.After(0, func() {
		for i := 0; i < 5; i++ {
			i := i
			lc.After(0, func() { got = append(got, i) })
		}
	})
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-lane events ran out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestLaneModeMatchesSerialSemanticsForPlainEvents(t *testing.T) {
	// A workload that never touches lanes must behave identically in
	// batch mode: same order, same clock, same RNG stream.
	run := func(workers int) (out []string, now Time) {
		l := NewLoop(11)
		l.SetWorkers(workers)
		var step func()
		n := 0
		step = func() {
			n++
			out = append(out, fmt.Sprintf("%d@%v draw%d", n, l.Now(), l.RNG().Intn(100)))
			if n < 20 {
				l.After(time.Duration(n)*time.Millisecond, step)
			}
		}
		l.After(0, step)
		l.Run()
		return out, l.Now()
	}
	a, an := run(0)
	b, bn := run(4)
	if an != bn {
		t.Fatalf("final clock differs: %v vs %v", an, bn)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("serial workload diverged in batch mode at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestLaneBatchStatsAccumulate(t *testing.T) {
	l := NewLoop(1)
	l.SetWorkers(2)
	for id := 1; id <= 2; id++ {
		lc := l.Lane(id)
		lc.After(0, func() {
			// Do a sliver of real work so busy time is nonzero.
			s := 0
			for i := 0; i < 1000; i++ {
				s += i
			}
			_ = s
		})
	}
	l.Run()
	st := l.BatchStats()
	if st.WorkNs < st.SpanNs {
		t.Fatalf("work %d < span %d", st.WorkNs, st.SpanNs)
	}
	if st.Speedup() < 1 {
		t.Fatalf("speedup %.2f < 1", st.Speedup())
	}
	l.ResetBatchStats()
	if s := l.BatchStats(); s.WorkNs != 0 || s.SpanNs != 0 {
		t.Fatalf("reset left stats %+v", s)
	}
}

// steadyLaneTick starts a tick on lane 1 that reschedules itself and
// commits a side effect every 50 ms — the shape of a shard game loop —
// and returns the counter the commits advance.
func steadyLaneTick(l *Loop) *int {
	lc := l.Lane(1)
	committed := new(int)
	commit := func() { *committed++ }
	var tick func()
	tick = func() {
		lc.Commit(commit)
		lc.After(50*time.Millisecond, tick)
	}
	lc.After(50*time.Millisecond, tick)
	return committed
}

// TestOneLaneWaveRunsOnLoopThread pins the cost contract of a wave
// nothing can overlap with: no goroutine, WaitGroup or sort — nothing
// allocated per StepBatch once the buffers have grown — whether the loop
// has one lane (unprofiled: BatchStats stays zero) or the wave merely
// holds one lane's events on a two-lane loop (profiled).
func TestOneLaneWaveRunsOnLoopThread(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		l := NewLoop(1)
		l.SetWorkers(4)
		committed := steadyLaneTick(l)
		if lanes == 2 {
			l.Lane(2) // registered, idle: lane 1's waves hold one group
		}
		for i := 0; i < 4; i++ {
			l.StepBatch()
		}
		before := *committed
		if allocs := testing.AllocsPerRun(100, func() { l.StepBatch() }); allocs != 0 {
			t.Errorf("%d lane(s): StepBatch of a one-lane wave allocates %v objects, want 0", lanes, allocs)
		}
		if *committed-before != 101 { // AllocsPerRun warms up with one extra call
			t.Errorf("%d lane(s): %d commits drained over 101 waves", lanes, *committed-before)
		}
		if s := l.BatchStats(); (lanes == 1) != (s == BatchStats{}) {
			t.Errorf("%d lane(s): BatchStats = %+v, want zero only on the one-lane loop", lanes, s)
		}
	}
}

// TestLaneBuffersDropFinishedClosures: a lane outlives the callbacks it
// ran, so once a wave's callback, its commit and its follow-up event are
// done, nothing in the lane's reused buffers may still reference what
// they captured. (A stopped server stayed resident through its lane's
// stale wave slot.) Checked on the loop-thread path and the pooled one.
func TestLaneBuffersDropFinishedClosures(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		l := NewLoop(1)
		freed := make(chan struct{})
		schedule := func() { // its own frame, so no local here outlives it
			captured := new([1 << 10]byte)
			runtime.SetFinalizer(captured, func(*[1 << 10]byte) { close(freed) })
			for id := 1; id <= lanes; id++ {
				lc := l.Lane(id)
				lc.After(0, func() {
					lc.Commit(func() { captured[0]++ })
					lc.After(0, func() { captured[1]++ })
				})
			}
		}
		schedule()
		l.Run()
		deadline := time.After(10 * time.Second)
		for collected := false; !collected; {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-deadline:
				t.Fatalf("%d lane(s): a finished wave's closures are still reachable from the loop", lanes)
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(l) // the loop, and so its lanes, outlive the closures
	}
}

// TestLaneLessLoopSkipsBatchProfile: a loop nobody asked a lane of has no
// waves to profile, so its events run without the wall-clock reads and
// BatchStats stays zero (Speedup 1).
func TestLaneLessLoopSkipsBatchProfile(t *testing.T) {
	l := NewLoop(1)
	l.SetWorkers(4)
	ran := 0
	for i := 0; i < 10; i++ {
		l.After(time.Duration(i%3)*time.Millisecond, func() { ran++ })
	}
	l.Run()
	if ran != 10 {
		t.Fatalf("ran %d events, want 10", ran)
	}
	if s := l.BatchStats(); s != (BatchStats{}) || s.Speedup() != 1 {
		t.Fatalf("lane-less loop profiled its events: %+v", s)
	}
}

func TestCommitOnPlainClockRunsImmediately(t *testing.T) {
	l := NewLoop(1)
	ran := false
	Commit(l, func() { ran = true })
	if !ran {
		t.Fatal("Commit on a plain Loop must run immediately")
	}
}
