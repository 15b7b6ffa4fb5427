package specexec

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"servo/internal/faas"
	"servo/internal/sc"
	"servo/internal/sim"
)

// fixture wires a manager to a simulated FaaS platform and a 20 Hz tick
// driver.
type fixture struct {
	loop *sim.Loop
	mgr  *Manager
	fn   *faas.Function
}

const tickInterval = 50 * time.Millisecond

func newFixture(t *testing.T, seed int64, cfg Config, fnCfg faas.Config) *fixture {
	t.Helper()
	loop := sim.NewLoop(seed)
	platform := faas.NewPlatform(loop)
	fn := platform.Register("simulate-sc", fnCfg, NewHandler())
	return &fixture{loop: loop, mgr: NewManager(platform, "simulate-sc", cfg), fn: fn}
}

// fastFn returns a function config whose execution is fast and
// deterministic: RTT 20 ms, no cold starts, negligible exec time.
func fastFn() faas.Config {
	return faas.Config{
		MemoryMB:      faas.FullVCPUMemMB,
		ColdStart:     fixed(0),
		NetRTT:        fixed(20 * time.Millisecond),
		KeepAlive:     fixed(time.Hour),
		NsPerWorkUnit: time.Nanosecond,
		ParallelFrac:  0.85,
	}
}

// runTicks drives n game ticks at 20 Hz.
func (f *fixture) runTicks(n int) {
	for i := 0; i < n; i++ {
		f.loop.After(tickInterval, func() { f.mgr.Tick() })
		f.loop.RunUntil(f.loop.Now() + tickInterval)
	}
}

func TestSpeculativeStatesMatchPureLocalSimulation(t *testing.T) {
	// THE core invariant (paper §III-C): regardless of function latency,
	// the sequence of authoritative states equals pure local simulation.
	for _, rtt := range []time.Duration{5 * time.Millisecond, 80 * time.Millisecond, 400 * time.Millisecond} {
		fnCfg := fastFn()
		fnCfg.NetRTT = fixed(rtt)
		f := newFixture(t, 1, Config{TickLead: 10, StepsPerInvocation: 40, DetectLoops: false}, fnCfg)

		ref := sc.NewLampBank(4, 8) // pure local reference
		id := f.mgr.Add(ref.Clone())

		for tick := 0; tick < 200; tick++ {
			f.runTicks(1)
			ref.Step()
			got := f.mgr.Construct(id)
			if got.Hash() != ref.Hash() {
				t.Fatalf("rtt=%v: state diverged from local simulation at tick %d", rtt, tick)
			}
		}
	}
}

func TestSpeculativeStatesMatchWithLoopDetection(t *testing.T) {
	f := newFixture(t, 2, Config{TickLead: 10, StepsPerInvocation: 50, DetectLoops: true}, fastFn())
	ref := sc.NewClock(3, 2)
	id := f.mgr.Add(ref.Clone())
	for tick := 0; tick < 400; tick++ {
		f.runTicks(1)
		ref.Step()
		if f.mgr.Construct(id).Hash() != ref.Hash() {
			t.Fatalf("loop replay diverged from local simulation at tick %d", tick)
		}
	}
	if f.mgr.Snapshot().ReplaySteps == 0 {
		t.Fatal("loop detection never kicked in for a periodic clock")
	}
}

func TestLoopDetectionStopsInvocations(t *testing.T) {
	// §III-C1: once the loop is known, the construct must be served
	// without further function invocations.
	f := newFixture(t, 3, Config{TickLead: 10, StepsPerInvocation: 100, DetectLoops: true}, fastFn())
	f.mgr.Add(sc.NewClock(3, 1))
	f.runTicks(100)
	countAt100 := f.fn.Invocations.Count()
	f.runTicks(400)
	if got := f.fn.Invocations.Count(); got != countAt100 {
		t.Fatalf("invocations kept flowing during loop replay: %d → %d", countAt100, got)
	}
}

func TestWithoutLoopDetectionInvocationsContinue(t *testing.T) {
	f := newFixture(t, 3, Config{TickLead: 10, StepsPerInvocation: 50, DetectLoops: false}, fastFn())
	f.mgr.Add(sc.NewClock(3, 1))
	f.runTicks(100)
	c1 := f.fn.Invocations.Count()
	f.runTicks(200)
	if got := f.fn.Invocations.Count(); got <= c1 {
		t.Fatal("invocations must continue without loop detection")
	}
}

func TestEfficiencyHighWithLead(t *testing.T) {
	// Fig. 8: with a 10+ tick lead and fast functions, efficiency is 1.0.
	f := newFixture(t, 4, Config{TickLead: 10, StepsPerInvocation: 50, DetectLoops: false}, fastFn())
	f.mgr.Add(sc.NewLampBank(4, 8))
	f.runTicks(300)
	if len(f.mgr.Efficiency) < 3 {
		t.Fatalf("too few invocations: %d", len(f.mgr.Efficiency))
	}
	// Skip the first invocation (activation hides a cold path).
	for i, e := range f.mgr.Efficiency[1:] {
		if e < 0.999 {
			t.Fatalf("invocation %d efficiency = %v, want 1.0", i+1, e)
		}
	}
}

func TestEfficiencyDegradesWithZeroLeadAndSlowFunction(t *testing.T) {
	// Fig. 8 lead-0 row: the server simulates locally while each
	// invocation is in flight, so efficiency < 1.
	fnCfg := fastFn()
	fnCfg.NetRTT = fixed(400 * time.Millisecond) // 8 ticks in flight
	f := newFixture(t, 5, Config{TickLead: 0, StepsPerInvocation: 50, DetectLoops: false}, fnCfg)
	f.mgr.Add(sc.NewLampBank(4, 8))
	f.runTicks(600)
	med := f.mgr.MedianEfficiency()
	// 8 of every 50 steps are recomputed locally → efficiency ≈ 0.84.
	if med < 0.7 || med > 0.95 {
		t.Fatalf("median efficiency = %v, want ≈ 0.84", med)
	}
	if s := f.mgr.Snapshot(); s.LocalSteps == 0 || s.RemoteSteps == 0 {
		t.Fatalf("expected mixed local/remote execution, got %+v", s)
	}
}

func TestModificationInvalidatesSpeculation(t *testing.T) {
	// A slow function guarantees an invocation is in flight when the
	// player modifies the construct, so its reply arrives stale.
	fnCfg := fastFn()
	fnCfg.NetRTT = fixed(300 * time.Millisecond) // 6 ticks in flight
	f := newFixture(t, 6, Config{TickLead: 10, StepsPerInvocation: 50, DetectLoops: true}, fnCfg)
	ref := sc.NewLampBank(3, 6)
	id := f.mgr.Add(ref.Clone())
	f.runTicks(2)                       // first invocation still in flight
	ref2 := f.mgr.Construct(id).Clone() // sync the reference

	// Player modifies the construct: toggle a source-ish cell.
	mutate := func(c *sc.Construct) {
		cell := c.At(0, 0)
		cell.On = !cell.On
		c.Set(0, 0, cell)
	}
	f.mgr.Modify(id, mutate)
	mutate(ref2)

	// The states must continue to match pure local simulation of the
	// modified construct.
	for tick := 0; tick < 100; tick++ {
		f.runTicks(1)
		ref2.Step()
		if f.mgr.Construct(id).Hash() != ref2.Hash() {
			t.Fatalf("post-modification state diverged at tick %d", tick)
		}
	}
	if f.mgr.Discards.Value() == 0 {
		t.Fatal("in-flight stale reply was never discarded")
	}
}

func TestModifyUnknownConstruct(t *testing.T) {
	f := newFixture(t, 7, DefaultConfig(), fastFn())
	if f.mgr.Modify(99, func(*sc.Construct) {}) {
		t.Fatal("Modify of unknown id must return false")
	}
}

func TestRemoveStopsManagement(t *testing.T) {
	f := newFixture(t, 8, DefaultConfig(), fastFn())
	id := f.mgr.Add(sc.NewClock(3, 1))
	f.runTicks(10)
	f.mgr.Remove(id)
	if f.mgr.Construct(id) != nil || f.mgr.Len() != 0 {
		t.Fatal("construct still present after Remove")
	}
	// In-flight replies for removed constructs must be ignored safely.
	f.runTicks(50)
}

// TestRemoveLeavesNoTrace: a removed construct leaves no pointer in the
// vacated tail of the insertion-order slice, and the rest keep their order.
func TestRemoveLeavesNoTrace(t *testing.T) {
	f := newFixture(t, 8, DefaultConfig(), fastFn())
	var ids []uint64
	for i := 0; i < 5; i++ {
		ids = append(ids, f.mgr.Add(sc.NewClock(3, 1)))
	}
	f.runTicks(10)
	for _, id := range []uint64{ids[1], ids[0], ids[4]} {
		f.mgr.Remove(id)
		for i, mc := range f.mgr.order[len(f.mgr.order):cap(f.mgr.order)] {
			if mc != nil {
				t.Fatalf("after removing %d: tail slot %d still holds construct %d", id, len(f.mgr.order)+i, mc.id)
			}
		}
	}
	if len(f.mgr.order) != 2 || f.mgr.order[0].id != ids[2] || f.mgr.order[1].id != ids[3] {
		t.Fatalf("order after removals holds %d constructs, want ids %d, %d", len(f.mgr.order), ids[2], ids[3])
	}
	f.runTicks(10)
}

func TestAppliedStepsCheaperThanLocal(t *testing.T) {
	// The point of offloading: applying speculative states must cost far
	// less than local simulation.
	fnCfg := fastFn()
	f := newFixture(t, 9, Config{TickLead: 20, StepsPerInvocation: 100, DetectLoops: false}, fnCfg)
	id := f.mgr.Add(sc.BuildSized(252))
	_ = id
	f.runTicks(5) // warm-up: first reply lands
	var applied, local int
	for i := 0; i < 100; i++ {
		f.loop.After(tickInterval, func() {
			remote := f.mgr.Snapshot().RemoteSteps
			w := f.mgr.Tick()
			if f.mgr.Snapshot().RemoteSteps > remote {
				applied += w
			} else {
				local += w
			}
		})
		f.loop.RunUntil(f.loop.Now() + tickInterval)
	}
	if applied == 0 {
		t.Fatal("no speculative states were applied")
	}
	if local > 0 && applied >= local {
		t.Fatalf("applied work (%d) must be below local work (%d)", applied, local)
	}
}

func TestManagerColdStartFallback(t *testing.T) {
	// With a huge cold start, the server must keep ticking locally and
	// remain correct.
	fnCfg := fastFn()
	fnCfg.ColdStart = fixed(2 * time.Second) // 40 ticks
	f := newFixture(t, 10, Config{TickLead: 0, StepsPerInvocation: 100, DetectLoops: false}, fnCfg)
	ref := sc.NewLampBank(2, 4)
	id := f.mgr.Add(ref.Clone())
	for tick := 0; tick < 120; tick++ {
		f.runTicks(1)
		ref.Step()
		if f.mgr.Construct(id).Hash() != ref.Hash() {
			t.Fatalf("diverged at tick %d during cold-start fallback", tick)
		}
	}
	s := f.mgr.Snapshot()
	if s.LocalSteps < 40 {
		t.Fatalf("local fallback steps = %d, want ≥ 40 during cold start", s.LocalSteps)
	}
	if s.RemoteSteps == 0 {
		t.Fatal("speculation never took over after the cold start")
	}
}

func TestSnapshotCounters(t *testing.T) {
	f := newFixture(t, 11, Config{TickLead: 10, StepsPerInvocation: 50, DetectLoops: true}, fastFn())
	f.mgr.Add(sc.NewClock(3, 1))
	f.mgr.Add(sc.NewLampBank(2, 4))
	f.runTicks(200)
	s := f.mgr.Snapshot()
	if n := f.mgr.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if s.ReplaySteps == 0 {
		t.Fatal("clock construct should be in loop replay")
	}
	total := s.LocalSteps + s.RemoteSteps + s.ReplaySteps
	if total != 2*200 {
		t.Fatalf("step accounting: %d steps for 2 constructs × 200 ticks", total)
	}
}

func TestMedianEfficiencyEmptyManager(t *testing.T) {
	f := newFixture(t, 12, DefaultConfig(), fastFn())
	if got := f.mgr.MedianEfficiency(); got != -1 {
		t.Fatalf("MedianEfficiency with no invocations = %v, want -1", got)
	}
}

func TestRequestReplyCodecRoundTrip(t *testing.T) {
	c := sc.NewLampBank(3, 5)
	req := Request{
		ConstructID: 7, Version: 3, BaseTick: 1234, Steps: 100,
		DetectLoops: true, Layout: c.EncodeLayout(),
	}
	dec, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if dec.ConstructID != 7 || dec.Version != 3 || dec.BaseTick != 1234 ||
		dec.Steps != 100 || !dec.DetectLoops || string(dec.Layout) != string(req.Layout) {
		t.Fatalf("request round trip mismatch: %+v", dec)
	}

	reply := Reply{
		ConstructID: 7, Version: 3, BaseTick: 1234,
		States: []sc.StateVector{{1, 2}, {3, 4, 5, 6}},
		Loop:   &sc.LoopInfo{EntryIndex: 1, Period: 1},
	}
	decR, err := DecodeReply(EncodeReply(reply))
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if decR.Loop == nil || decR.Loop.Period != 1 || len(decR.States) != 2 ||
		string(decR.States[1]) != string(reply.States[1]) {
		t.Fatalf("reply round trip mismatch: %+v", decR)
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeRequest accepted truncated input")
	}
	if _, err := DecodeReply([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeReply accepted truncated input")
	}
	full := EncodeReply(Reply{States: []sc.StateVector{{1, 2, 3, 4}}})
	if _, err := DecodeReply(full[:len(full)-2]); err == nil {
		t.Fatal("DecodeReply accepted truncated states")
	}
}

// TestDecodeReplyRefusesOversizedCount: a reply whose state count exceeds
// what its bytes can hold is a truncation error, decided before the count
// sizes an allocation: unchecked, this 37-byte reply asks for a
// 4-billion-element slice, and out-of-memory is not recoverable. Other
// goroutines of the test binary (the race runtime's among them) allocate
// too, so only an excess that repeats is the decoder's.
func TestDecodeReplyRefusesOversizedCount(t *testing.T) {
	buf := make([]byte, 37) // header, no loop, then the count
	copy(buf[33:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	for try := 0; ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeReply(buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("reply claiming 2^32-1 states in 0 bytes decoded without error")
		}
		got := after.TotalAlloc - before.TotalAlloc
		if got <= 4096 {
			return
		}
		if try == 3 {
			t.Fatalf("refusing the reply allocated %d bytes", got)
		}
	}
}

func TestHandlerRejectsGarbage(t *testing.T) {
	h := NewHandler()
	resp, work := h([]byte{1, 2, 3})
	if resp != nil || work != 1 {
		t.Fatal("the handler must fail cleanly on garbage input")
	}
	// Valid header, garbage layout.
	req := Request{Steps: 10, Layout: []byte{9, 9, 9}}
	resp, _ = h(EncodeRequest(req))
	if resp != nil {
		t.Fatal("the handler must fail cleanly on a corrupt layout")
	}
}

// TestDecodeReplyRejectsLoopNotEndingStates: a loop must be the tail of the
// states it comes with, as the simulator emits it. One that runs past them
// never maps a replayed tick inside the buffer, and while it is installed
// the construct is neither replayed nor refreshed: it would run locally
// until a player modified it.
func TestDecodeReplyRejectsLoopNotEndingStates(t *testing.T) {
	states := []sc.StateVector{{1, 2}, {3, 4}, {5, 6}}
	for _, tc := range []struct {
		loop sc.LoopInfo
		ok   bool
	}{
		{sc.LoopInfo{EntryIndex: 0, Period: 3}, true},
		{sc.LoopInfo{EntryIndex: 2, Period: 1}, true},
		{sc.LoopInfo{EntryIndex: 1, Period: 4}, false},
		{sc.LoopInfo{EntryIndex: 0, Period: 2}, false},
		{sc.LoopInfo{EntryIndex: 3, Period: 1}, false},
	} {
		loop := tc.loop
		_, err := DecodeReply(EncodeReply(Reply{States: states, Loop: &loop}))
		if (err == nil) != tc.ok {
			t.Errorf("loop %+v over %d states: error %v, want ok=%v", loop, len(states), err, tc.ok)
		}
	}
	// The handler's own replies always pass.
	res := sc.Simulate(sc.NewClock(3, 1), 100, true)
	if res.Loop == nil {
		t.Fatal("a clock found no loop")
	}
	if _, err := DecodeReply(EncodeReply(Reply{States: res.States, Loop: res.Loop})); err != nil {
		t.Fatalf("a simulated loop: %v", err)
	}
}

// allocated returns the bytes one call of decode allocated.
func allocated(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocation fails t if decode allocates more than limit bytes.
// Other goroutines of the test binary allocate too, so only an excess that
// repeats is the decoder's.
func checkAllocation(t *testing.T, limit uint64, decode func()) {
	t.Helper()
	for try := 0; ; try++ {
		got := allocated(decode)
		if got <= limit {
			return
		}
		if try == 3 {
			t.Fatalf("decoding allocated %d bytes, want at most %d", got, limit)
		}
	}
}

// seedRequests returns requests as the manager sends them: the wiring and
// a mid-run state of the builders' constructs.
func seedRequests() [][]byte {
	var out [][]byte
	for i, c := range []*sc.Construct{sc.NewClock(3, 1), sc.NewLampBank(2, 4), sc.BuildSized(12)} {
		c.Step()
		out = append(out, EncodeRequest(Request{
			ConstructID: uint64(i + 1), Version: uint64(i), BaseTick: 1000, Steps: 50,
			DetectLoops: i%2 == 0, Layout: c.EncodeLayout(),
		}))
	}
	return out
}

// FuzzDecodeRequest feeds DecodeRequest arbitrary payloads. It must not
// panic or allocate (the layout is a view of the payload), and whatever
// decodes must re-encode to the payload, but for a detect-loops flag byte
// other than 0 or 1, which reads as false. The seeds are requests as the
// manager sends them and the files under testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range seedRequests() {
		f.Add(req)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllocation(t, 1024, func() { _, _ = DecodeRequest(data) })
		r, err := DecodeRequest(data)
		if err != nil {
			return
		}
		want := bytes.Clone(data)
		if want[28] > 1 {
			want[28] = 0
		}
		if got := EncodeRequest(r); !bytes.Equal(got, want) {
			t.Fatalf("decoded request re-encodes to %x, want %x", got, want)
		}
	})
}

// FuzzDecodeReply feeds DecodeReply arbitrary replies. It must not panic,
// must not allocate more than a state header per four input bytes (every
// state costs its length prefix), must accept a loop only as the tail of
// the states, and whatever decodes must re-encode to the bytes it was
// decoded from, but for a loop flag byte other than 1, which reads as no
// loop (encoded as nine zero bytes), and the bytes after the last state,
// which are ignored. The seeds are the handler's replies to seedRequests
// and the hostile replies under testdata/fuzz/FuzzDecodeReply.
func FuzzDecodeReply(f *testing.F) {
	h := NewHandler()
	for _, req := range seedRequests() {
		reply, _ := h(req)
		f.Add(reply)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllocation(t, uint64(6*len(data)+1024), func() { _, _ = DecodeReply(data) })
		r, err := DecodeReply(data)
		if err != nil {
			return
		}
		if l := r.Loop; l != nil && (l.Period <= 0 || l.EntryIndex < 0 || l.EntryIndex+l.Period != len(r.States)) {
			t.Fatalf("accepted loop %+v over %d states", *l, len(r.States))
		}
		enc := EncodeReply(r)
		want := bytes.Clone(data[:len(enc)])
		if want[24] != 1 {
			clear(want[24:33])
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("decoded reply re-encodes to %x, want %x", enc, want)
		}
	})
}

// Construct returns the authoritative construct state for id, or nil.
func (m *Manager) Construct(id uint64) *sc.Construct {
	if mc := m.constructs[id]; mc != nil {
		return mc.construct
	}
	return nil
}

// fixed is a latency distribution that always returns d: a uniform one of
// zero width.
func fixed(d time.Duration) sim.Dist { return sim.Uniform{Low: d, High: d} }
