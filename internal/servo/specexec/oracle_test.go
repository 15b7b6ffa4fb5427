package specexec

import "servo/internal/sc"

// oracleHandler is the simulation function as it was before it kept its
// scratch between invocations: a fresh construct per request, a clone of
// it to simulate, a state slice and a hash map per run. The handler's
// replies and work units are held to it byte for byte; nothing else uses
// it.
func oracleHandler(payload []byte) ([]byte, int) {
	req, err := DecodeRequest(payload)
	if err != nil {
		return nil, 1
	}
	c, err := sc.DecodeLayout(req.Layout)
	if err != nil {
		return nil, 1
	}
	res := oracleSimulate(c, int(req.Steps), req.DetectLoops)
	reply := Reply{
		ConstructID: req.ConstructID,
		Version:     req.Version,
		BaseTick:    req.BaseTick,
		States:      res.States,
		Loop:        res.Loop,
	}
	return EncodeReply(reply), res.WorkUnits
}

// oracleSimulate is sc.Simulate as it was before the loop detector moved
// into sc.Simulator: every state its own allocation, and a map from state
// hash to the indices of the states with that hash.
func oracleSimulate(c *sc.Construct, steps int, detectLoops bool) sc.Result {
	sim := c.Clone()
	res := sc.Result{States: make([]sc.StateVector, 0, steps)}
	var seen map[uint64][]int // state hash → indices into res.States (and -1 for the initial state)
	var initial sc.StateVector
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
			var prev sc.StateVector
			if j == -1 {
				prev = initial
			} else {
				prev = res.States[j]
			}
			if string(prev) == string(state) {
				entry := j + 1 // first state index of the loop body
				res.Loop = &sc.LoopInfo{EntryIndex: entry, Period: i - j}
				res.States = res.States[:i+1]
				return res
			}
		}
		seen[h] = append(seen[h], i)
	}
	return res
}
