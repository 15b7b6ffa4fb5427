package sc

// Simulation entry point of the serverless simulation function. A
// Simulator's Run is what Servo deploys as the FaaS handler body (paper
// §III-C): it advances a construct several steps, records every
// intermediate state, and detects state loops. Simulate is the same run on
// a copy of a construct, with storage of its own.

import "bytes"

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

// MaxSteps bounds the steps one simulation request may ask for: well above
// the paper's 50–200-step invocations (Fig. 8/9), and low enough that a
// request's states can be bounded before they are computed.
const MaxSteps = 4096

// Simulate advances a copy of the construct by up to steps steps, returning
// every intermediate state. The input construct is not modified. When
// detectLoops is set and the state sequence revisits an earlier state, the
// result is truncated to one full loop period and annotated with LoopInfo.
//
// Loop detection hashes each state (FNV-1a, 64-bit) and confirms candidate
// matches by comparing full state vectors, so hash collisions cannot
// produce a false loop.
func Simulate(c *Construct, steps int, detectLoops bool) Result {
	var s Simulator
	return s.Run(c.Clone(), steps, detectLoops)
}

// Simulator runs Simulate with storage kept from one run to the next: the
// states of a run are written back to back into one slab, and loop
// detection indexes them by hash in one open-addressed table. Once both
// have grown to a workload's size, a run allocates nothing. A Simulator
// is not safe for concurrent use.
type Simulator struct {
	// slab holds the initial state and then the state after each step,
	// each len(c.state) bytes.
	slab   []byte
	states []StateVector
	loop   LoopInfo
	seen   loopTable
}

// Run is Simulate on c itself: c is advanced in place, by as many steps as
// the result holds. The result's States and Loop are views of the
// simulator's storage, valid until its next Run.
func (s *Simulator) Run(c *Construct, steps int, detectLoops bool) Result {
	n := len(c.state)
	s.slab = append(s.slab[:0], c.state...)
	if detectLoops {
		s.seen.reset(steps)
		s.seen.insert(c.Hash(), 0)
	}
	res := Result{}
	k := 0
	for k < steps {
		k++
		res.WorkUnits += c.Step()
		s.slab = append(s.slab, c.state...)
		if !detectLoops {
			continue
		}
		h := c.Hash()
		if j, ok := s.seen.find(h, s.slab, n, k); ok {
			s.loop = LoopInfo{EntryIndex: j, Period: k - j}
			res.Loop = &s.loop
			break
		}
		s.seen.insert(h, k)
	}
	s.states = s.states[:0]
	for i := 1; i <= k; i++ {
		s.states = append(s.states, s.slab[i*n:(i+1)*n:(i+1)*n])
	}
	res.States = s.states
	return res
}

// loopTable maps state hashes to the slab indices of the states. It is
// open-addressed with linear probing, and reset sizes it so a run keeps it
// at most half full.
type loopTable []loopSlot

// loopSlot is one table entry; state is the slab index plus one, so the
// zero slot is empty.
type loopSlot struct {
	hash  uint64
	state int32
}

// reset empties the table, sized for a run of the given steps.
func (t *loopTable) reset(steps int) {
	size := 16
	for size < 2*(steps+1) {
		size *= 2
	}
	if cap(*t) < size {
		*t = make(loopTable, size)
	}
	*t = (*t)[:size]
	clear(*t)
}

// find returns the index of an earlier state equal to state k of slab
// (states n bytes each) whose hash is h. Equal hashes are confirmed by a
// full compare.
func (t loopTable) find(h uint64, slab []byte, n, k int) (int, bool) {
	cur := slab[k*n : (k+1)*n]
	mask := len(t) - 1
	for i := int(h) & mask; t[i].state != 0; i = (i + 1) & mask {
		if t[i].hash == h {
			j := int(t[i].state) - 1
			if bytes.Equal(slab[j*n:(j+1)*n], cur) {
				return j, true
			}
		}
	}
	return 0, false
}

// insert records state k under hash h.
func (t loopTable) insert(h uint64, k int) {
	mask := len(t) - 1
	i := int(h) & mask
	for t[i].state != 0 {
		i = (i + 1) & mask
	}
	t[i] = loopSlot{hash: h, state: int32(k) + 1}
}
