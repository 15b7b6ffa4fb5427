package sc

import (
	"testing"
	"testing/quick"
)

func TestSimulateMatchesLocalStepping(t *testing.T) {
	c := NewLampBank(4, 8)
	res := Simulate(c, 50, false)
	if len(res.States) != 50 {
		t.Fatalf("got %d states, want 50", len(res.States))
	}
	// The original construct must be untouched.
	if c.step != 0 {
		t.Fatal("Simulate mutated its input")
	}
	local := c.Clone()
	for i := 0; i < 50; i++ {
		local.Step()
		if string(res.States[i]) != string(local.State()) {
			t.Fatalf("remote state %d differs from local simulation", i+1)
		}
	}
}

func TestSimulateDetectsClockLoop(t *testing.T) {
	c := NewClock(3, 2)
	res := Simulate(c, 500, true)
	if res.Loop == nil {
		t.Fatal("no loop detected for a periodic clock in 500 steps")
	}
	if res.Loop.Period < 2 {
		t.Fatalf("loop period = %d, want >= 2", res.Loop.Period)
	}
	if len(res.States) >= 500 {
		t.Fatal("states not truncated after loop detection")
	}
	if res.Loop.EntryIndex < 0 || res.Loop.EntryIndex >= len(res.States) {
		t.Fatalf("entry index %d out of range (%d states)", res.Loop.EntryIndex, len(res.States))
	}
}

func TestSimulateLoopReplayMatchesRealSimulation(t *testing.T) {
	// The central loop-detection correctness property (paper §III-C1):
	// replaying the truncated loop must yield exactly the states a full
	// simulation would produce, forever.
	c := NewClock(3, 1)
	res := Simulate(c, 500, true)
	if res.Loop == nil {
		t.Skip("clock produced no loop — covered by TestSimulateDetectsClockLoop")
	}
	local := c.Clone()
	for step := 1; step <= 300; step++ {
		local.Step()
		got, ok := res.StateAt(step)
		if !ok {
			t.Fatalf("StateAt(%d) not available despite loop", step)
		}
		if string(got) != string(local.State()) {
			t.Fatalf("replayed state at step %d differs from real simulation", step)
		}
	}
}

func TestSimulateLoopReplayQuick(t *testing.T) {
	res := Simulate(NewClock(3, 2), 500, true)
	if res.Loop == nil {
		t.Skip("no loop found")
	}
	n := len(res.States)
	f := func(rawOffset uint16) bool {
		offset := int(rawOffset)%2000 + 1
		got, ok := res.StateAt(offset)
		if !ok {
			return false
		}
		if offset <= n {
			return string(got) == string(res.States[offset-1])
		}
		// Beyond the window: must equal the state one period earlier.
		earlier, ok2 := res.StateAt(offset - res.Loop.Period)
		return ok2 && string(got) == string(earlier)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStateAtOutOfRangeWithoutLoop(t *testing.T) {
	res := Simulate(NewLampBank(2, 4), 10, false)
	if _, ok := res.StateAt(11); ok {
		t.Fatal("StateAt beyond window without loop must report false")
	}
	if _, ok := res.StateAt(0); ok {
		t.Fatal("StateAt(0) must report false (offsets are 1-based)")
	}
	if _, ok := res.StateAt(10); !ok {
		t.Fatal("StateAt(10) within window must succeed")
	}
}

func TestSimulateWorkUnitsScaleWithSteps(t *testing.T) {
	c := NewLampBank(4, 8)
	short := Simulate(c, 10, false)
	long := Simulate(c, 100, false)
	if short.WorkUnits <= 0 {
		t.Fatal("work units must be positive")
	}
	if long.WorkUnits <= short.WorkUnits {
		t.Fatal("more steps must cost more work")
	}
}

func TestSimulateLoopSavesWork(t *testing.T) {
	// The cost optimisation: with loop detection a periodic construct
	// costs a bounded amount of work no matter how many steps are asked
	// for.
	c := NewClock(3, 1)
	with := Simulate(c, 10000, true)
	without := Simulate(c, 10000, false)
	if with.Loop == nil {
		t.Skip("no loop found")
	}
	if with.WorkUnits >= without.WorkUnits/10 {
		t.Fatalf("loop detection saved too little work: %d vs %d", with.WorkUnits, without.WorkUnits)
	}
}

func TestSimulateZeroSteps(t *testing.T) {
	res := Simulate(NewClock(1, 0), 0, true)
	if len(res.States) != 0 || res.Loop != nil || res.WorkUnits != 0 {
		t.Fatalf("zero-step simulation must be empty, got %+v", res)
	}
}

// StateAt returns the construct state at the given future step offset
// (1-based: offset 1 is the state after one step), replaying the loop if
// one was detected. It reports false when the offset is beyond the
// recorded window and no loop is available.
func (r Result) StateAt(offset int) (StateVector, bool) {
	if offset < 1 {
		return nil, false
	}
	if offset <= len(r.States) {
		return r.States[offset-1], true
	}
	if r.Loop == nil {
		return nil, false
	}
	// Replay: indices ≥ EntryIndex cycle with the loop period.
	i := r.Loop.EntryIndex + (offset-1-r.Loop.EntryIndex)%r.Loop.Period
	return r.States[i], true
}
