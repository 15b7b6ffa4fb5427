package specexec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"servo/internal/faas"
	"servo/internal/sc"
	"servo/internal/sim"
)

// handlerRequests returns requests over the builders' constructs, each
// mid-run, at every step count in steps, with and without loop detection.
func handlerRequests(steps ...uint32) [][]byte {
	var out [][]byte
	for i, c := range []*sc.Construct{sc.NewClock(3, 2), sc.NewLampBank(4, 8), sc.BuildSized(250)} {
		for range 3 {
			c.Step()
		}
		for _, n := range steps {
			for _, detect := range []bool{false, true} {
				out = append(out, EncodeRequest(Request{
					ConstructID: uint64(i + 1), Version: uint64(n), BaseTick: 77, Steps: n,
					DetectLoops: detect, Layout: c.EncodeLayout(),
				}))
			}
		}
	}
	return out
}

// TestSCHandlerSteadyStateAllocatesItsReply: the handler decodes into one
// construct and simulates with one simulator of its own, so once both have
// held the largest request an invocation allocates exactly the reply it
// returns — and every reply, and the work it bills, is what the handler
// computed before it kept any scratch, whatever the scratch held before.
func TestSCHandlerSteadyStateAllocatesItsReply(t *testing.T) {
	reqs := handlerRequests(0, 1, 100, 500)
	h := NewHandler()
	for _, req := range reqs {
		h(req)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(reqs), func() {
		h(reqs[i%len(reqs)])
		i++
	})
	if allocs != 1 {
		t.Fatalf("a steady-state invocation allocates %.1f objects, want 1 (its reply)", allocs)
	}
	loops := 0
	for _, req := range reqs {
		got, gotWork := h(req)
		want, wantWork := oracleHandler(req)
		if !bytes.Equal(got, want) || gotWork != wantWork {
			r, _ := DecodeRequest(req)
			t.Fatalf("construct %d, %d steps, loops %v: reply of %d bytes and %d work units, oracle %d bytes and %d",
				r.ConstructID, r.Steps, r.DetectLoops, len(got), gotWork, len(want), wantWork)
		}
		if len(got) != cap(got) {
			t.Fatalf("reply of %d bytes has capacity %d", len(got), cap(got))
		}
		if rep, err := DecodeReply(got); err != nil {
			t.Fatal(err)
		} else if rep.Loop != nil {
			loops++
		}
	}
	if loops == 0 {
		t.Fatal("no request found a loop: the loop table went untested")
	}
}

// TestHandlerRefusesUnboundedSteps: a request's step count sizes what the
// handler stores, so one above sc.MaxSteps, or one whose states could
// encode to more than maxReplyBytes, is refused before anything is sized
// for it; sc.MaxSteps itself is served.
func TestHandlerRefusesUnboundedSteps(t *testing.T) {
	h := NewHandler()
	small := sc.NewLampBank(2, 2).EncodeLayout()
	// 4 + 2·blocks bytes a state: past the byte bound at sc.MaxSteps.
	blocks := (maxReplyBytes/sc.MaxSteps - 4) / 2
	big := sc.BuildSized(blocks).EncodeLayout()
	for _, tc := range []struct {
		name   string
		steps  uint32
		layout []byte
		ok     bool
	}{
		{"max-steps", sc.MaxSteps, small, true},
		{"past-max-steps", sc.MaxSteps + 1, small, false},
		{"all-ones-steps", 1<<32 - 1, small, false},
		{"big-construct-one-step", 1, big, true},
		{"past-max-bytes", sc.MaxSteps, big, false},
	} {
		req := EncodeRequest(Request{Steps: tc.steps, Layout: tc.layout})
		limit := uint64(1 << 20)
		if tc.ok {
			limit = 1 << 30
		}
		var resp []byte
		var work int
		checkAllocation(t, limit, func() { resp, work = h(req) })
		if ok := resp != nil; ok != tc.ok {
			t.Fatalf("%s: served %v, want %v", tc.name, ok, tc.ok)
		}
		if !tc.ok && work != 1 {
			t.Fatalf("%s: a refused request bills %d work units, want 1", tc.name, work)
		}
	}
}

// TestManagerRefusesStepsAboveMax: the step count a manager asks for is a
// wire uint32 the function bounds by sc.MaxSteps, so a larger
// configuration is a programming error, not a silent truncation.
func TestManagerRefusesStepsAboveMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewManager accepted StepsPerInvocation above sc.MaxSteps")
		}
	}()
	NewManager(nil, "simulate-sc", Config{StepsPerInvocation: sc.MaxSteps + 1})
}

// TestAppliedReplyIsNeverWritten: a construct applies a reply's states by
// reference, so the reply must come out of everything that follows —
// application, local steps once the buffer runs dry, a player's
// modification and local steps after it — byte for byte as the function
// returned it.
func TestAppliedReplyIsNeverWritten(t *testing.T) {
	loop := sim.NewLoop(13)
	platform := faas.NewPlatform(loop)
	fnCfg := fastFn()
	// 7 ticks in flight: the clock's period is 2, so the local steps from
	// an applied state never end on the state they started from.
	fnCfg.NetRTT = fixed(350 * time.Millisecond)
	h := NewHandler()
	var replies, snapshots [][]byte
	platform.Register("simulate-sc", fnCfg, func(payload []byte) ([]byte, int) {
		resp, work := h(payload)
		replies, snapshots = append(replies, resp), append(snapshots, bytes.Clone(resp))
		return resp, work
	})
	// No lead: every buffer runs dry, and the construct steps locally
	// from the last state it applied until the next reply lands.
	f := &fixture{loop: loop, mgr: NewManager(platform, "simulate-sc", Config{TickLead: 0, StepsPerInvocation: 20})}
	ref := sc.NewClock(3, 2) // a state that keeps changing, so a stray write shows
	id := f.mgr.Add(ref.Clone())
	mutate := func(c *sc.Construct) {
		cell := c.At(0, 0)
		cell.On = !cell.On
		c.Set(0, 0, cell)
	}
	for tick := range 200 {
		if tick == 100 {
			f.mgr.Modify(id, mutate)
			mutate(ref)
		}
		f.runTicks(1)
		ref.Step()
		if f.mgr.Construct(id).Hash() != ref.Hash() {
			t.Fatalf("state diverged from local simulation at tick %d", tick)
		}
	}
	if s := f.mgr.Snapshot(); s.RemoteSteps < 100 || s.LocalSteps < 20 {
		t.Fatalf("%d applied and %d local steps: the run must mix both", s.RemoteSteps, s.LocalSteps)
	}
	for i := range replies {
		if !bytes.Equal(replies[i], snapshots[i]) {
			t.Fatalf("reply %d of %d was written after the function returned it", i, len(replies))
		}
	}
}

// FuzzSCHandler feeds the simulation function arbitrary requests. It must
// not panic; what one invocation allocates is bounded by its input and
// the steps it asks for (its construct, then per step a state, its slot in
// the loop table and its share of the reply); and a request the handler
// before it kept scratch answered, with at most sc.MaxSteps steps, gets
// the same reply bytes and work units, from a handler whose scratch holds
// the previous input. The seeds are requests as the manager sends them
// and the files under testdata/fuzz/FuzzSCHandler.
func FuzzSCHandler(f *testing.F) {
	for _, req := range seedRequests() {
		f.Add(req)
	}
	warm := NewHandler()
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := uint64(0)
		if len(data) >= requestHeaderLen {
			steps = min(uint64(binary.LittleEndian.Uint32(data[24:])), sc.MaxSteps)
		}
		limit := 8*(steps+1)*uint64(len(data)+16) + 64<<10
		checkAllocation(t, limit, func() { _, _ = NewHandler()(data) })
		got, gotWork := warm(data)
		if got == nil && gotWork != 1 {
			t.Fatalf("a refused request bills %d work units, want 1", gotWork)
		}
		if req, err := DecodeRequest(data); err != nil || req.Steps > sc.MaxSteps {
			if got != nil {
				t.Fatal("served a request the handler must refuse")
			}
			return
		}
		want, wantWork := oracleHandler(data)
		switch {
		case want == nil:
			if got != nil {
				t.Fatal("served a request the oracle refused")
			}
		case got == nil:
			// Only the byte bound may refuse what the oracle served: its
			// worst case, every step's state, before a loop cuts it short.
			req, _ := DecodeRequest(data)
			c, _ := sc.DecodeLayout(req.Layout)
			if replyHeaderLen+int(req.Steps)*(4+2*c.BlockCount()) <= maxReplyBytes {
				t.Fatalf("refused a request the oracle served with %d bytes", len(want))
			}
		case !bytes.Equal(got, want) || gotWork != wantWork:
			t.Fatalf("reply of %d bytes and %d work units, oracle %d bytes and %d", len(got), gotWork, len(want), wantWork)
		}
	})
}
