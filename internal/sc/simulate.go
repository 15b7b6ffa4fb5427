package sc

// Simulation entry point shared by the game server's local fallback path
// and the serverless simulation function. Simulate is what Servo deploys as
// the FaaS handler body (paper §III-C): it advances a construct several
// steps, records every intermediate state, and detects state loops.

// LoopInfo describes a detected state cycle (paper §III-C1): after reaching
// States[EntryIndex] the construct cycles with the given period, so future
// states can be replayed from the recorded window without further
// simulation.
type LoopInfo struct {
	// EntryIndex is the index in the returned state sequence where the
	// loop begins (the first state that repeats).
	EntryIndex int
	// Period is the loop length in steps.
	Period int
}

// Result is the reply of one simulation run: the state after each executed
// step, loop metadata if a cycle was found, and the work performed.
type Result struct {
	// States holds the construct state after steps 1..N. When a loop is
	// detected the sequence is truncated at the end of the first full
	// loop period (further states are redundant).
	States []StateVector
	// Loop is non-nil if the state sequence entered a cycle.
	Loop *LoopInfo
	// WorkUnits is the total simulation work executed, which determines
	// the function's billed execution time.
	WorkUnits int
}

// Simulate advances a copy of the construct by up to steps steps, returning
// every intermediate state. The input construct is not modified. When
// detectLoops is set and the state sequence revisits an earlier state, the
// result is truncated to one full loop period and annotated with LoopInfo.
//
// Loop detection hashes each state (FNV-1a, 64-bit) and confirms candidate
// matches by comparing full state vectors, so hash collisions cannot
// produce a false loop.
func Simulate(c *Construct, steps int, detectLoops bool) Result {
	sim := c.Clone()
	res := Result{States: make([]StateVector, 0, steps)}
	var seen map[uint64][]int // state hash → indices into res.States (and -1 for the initial state)
	var initial StateVector
	if detectLoops {
		seen = make(map[uint64][]int, steps+1)
		initial = sim.State()
		seen[sim.Hash()] = []int{-1}
	}
	for i := 0; i < steps; i++ {
		res.WorkUnits += sim.Step()
		state := sim.State()
		res.States = append(res.States, state)
		if !detectLoops {
			continue
		}
		h := sim.Hash()
		for _, j := range seen[h] {
			var prev StateVector
			if j == -1 {
				prev = initial
			} else {
				prev = res.States[j]
			}
			if string(prev) == string(state) {
				entry := j + 1 // first state index of the loop body
				res.Loop = &LoopInfo{EntryIndex: entry, Period: i - j}
				res.States = res.States[:i+1]
				return res
			}
		}
		seen[h] = append(seen[h], i)
	}
	return res
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
