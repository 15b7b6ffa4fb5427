package sc

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSourcePowersWireWithDecay(t *testing.T) {
	c := New(18, 1)
	c.Set(0, 0, Cell{Kind: Source, On: true})
	for x := 1; x < 18; x++ {
		c.Set(x, 0, Cell{Kind: Wire})
	}
	c.Step()
	for x := 1; x < 18; x++ {
		want := MaxPower - x
		if want < 0 {
			want = 0
		}
		if got := int(c.At(x, 0).Power); got != want {
			t.Fatalf("wire power at x=%d is %d, want %d", x, got, want)
		}
	}
}

func TestLampLightsNextToPoweredWire(t *testing.T) {
	c := New(4, 1)
	c.Set(0, 0, Cell{Kind: Source, On: true})
	c.Set(1, 0, Cell{Kind: Wire})
	c.Set(2, 0, Cell{Kind: Lamp})
	c.Step()
	if !c.At(2, 0).On {
		t.Fatal("lamp next to powered wire must light")
	}
	// Turn the source off: the lamp must go dark on the next step.
	cell := c.At(0, 0)
	cell.On = false
	c.Set(0, 0, cell)
	c.Step()
	if c.At(2, 0).On {
		t.Fatal("lamp must turn off when power is removed")
	}
}

func TestPowerDoesNotCrossEmptyCells(t *testing.T) {
	c := New(5, 1)
	c.Set(0, 0, Cell{Kind: Source, On: true})
	c.Set(1, 0, Cell{Kind: Wire})
	// gap at x=2
	c.Set(3, 0, Cell{Kind: Wire})
	c.Set(4, 0, Cell{Kind: Lamp})
	c.Step()
	if got := c.At(3, 0).Power; got != 0 {
		t.Fatalf("wire across gap has power %d, want 0", got)
	}
	if c.At(4, 0).On {
		t.Fatal("lamp across gap must stay dark")
	}
}

func TestInverterOscillates(t *testing.T) {
	// A single inverter feeding its own input through a wire oscillates
	// with period 2.
	c := New(2, 1)
	c.Set(0, 0, Cell{Kind: Inverter, On: true})
	c.Set(1, 0, Cell{Kind: Wire})
	var states []bool
	for i := 0; i < 8; i++ {
		c.Step()
		states = append(states, c.At(0, 0).On)
	}
	for i := 1; i < len(states); i++ {
		if states[i] == states[i-1] {
			t.Fatalf("inverter did not oscillate: %v", states)
		}
	}
}

func TestRepeaterDelay(t *testing.T) {
	c := New(4, 1)
	c.Set(0, 0, Cell{Kind: Source, On: true})
	c.Set(1, 0, Cell{Kind: Wire})
	c.Set(2, 0, Cell{Kind: Repeater, Delay: 3})
	c.Set(3, 0, Cell{Kind: Lamp})
	onAt := -1
	for i := 1; i <= 6; i++ {
		c.Step()
		if c.At(2, 0).On {
			onAt = i
			break
		}
	}
	if onAt != 3 {
		t.Fatalf("repeater with delay 3 turned on at step %d, want 3", onAt)
	}
}

func TestClockIsPeriodic(t *testing.T) {
	c := NewClock(3, 2)
	if c.BlockCount() == 0 {
		t.Fatal("clock has no blocks")
	}
	// Collect hashes; the clock must revisit a state within a reasonable
	// horizon and keep changing state before that.
	seen := map[uint64]int{c.Hash(): 0}
	period := 0
	for i := 1; i <= 512; i++ {
		c.Step()
		h := c.Hash()
		if at, ok := seen[h]; ok {
			period = i - at
			break
		}
		seen[h] = i
	}
	if period == 0 {
		t.Fatal("clock never revisited a state in 512 steps")
	}
	if period < 2 {
		t.Fatalf("clock period %d, want >= 2", period)
	}
}

func TestStepDeterministicAcrossClones(t *testing.T) {
	a := NewLampBank(4, 8)
	b := a.Clone()
	for i := 0; i < 100; i++ {
		a.Step()
		b.Step()
		if a.Hash() != b.Hash() {
			t.Fatalf("clones diverged at step %d", i)
		}
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	c := NewLampBank(3, 6)
	for i := 0; i < 17; i++ {
		c.Step()
	}
	snap := c.State()
	// Run ahead, then restore.
	ahead := c.Clone()
	for i := 0; i < 5; i++ {
		ahead.Step()
	}
	if err := ahead.SetState(snap); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	if ahead.Hash() != c.Hash() {
		t.Fatal("restored state differs from snapshot")
	}
	// And stepping both again stays in lockstep.
	for i := 0; i < 10; i++ {
		c.Step()
		ahead.Step()
		if c.Hash() != ahead.Hash() {
			t.Fatalf("diverged after restore at step %d", i)
		}
	}
}

func TestSetStateRejectsWrongLength(t *testing.T) {
	c := NewClock(3, 1)
	if err := c.SetState(StateVector{1, 2, 3}); err == nil {
		t.Fatal("SetState accepted a wrong-size vector")
	}
}

func TestLayoutEncodeDecodeRoundTrip(t *testing.T) {
	c := NewLampBank(5, 10)
	for i := 0; i < 9; i++ {
		c.Step()
	}
	dec, err := DecodeLayout(c.EncodeLayout())
	if err != nil {
		t.Fatalf("DecodeLayout: %v", err)
	}
	if dec.Hash() != c.Hash() {
		t.Fatal("decoded construct state differs")
	}
	if dec.BlockCount() != c.BlockCount() {
		t.Fatal("decoded construct block count differs")
	}
	// Decoded construct must behave identically.
	for i := 0; i < 50; i++ {
		c.Step()
		dec.Step()
		if c.Hash() != dec.Hash() {
			t.Fatalf("decoded construct diverged at step %d", i)
		}
	}
}

func TestDecodeLayoutRejectsCorruptInput(t *testing.T) {
	enc := NewClock(3, 1).EncodeLayout()
	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:4],
		"truncated": enc[:len(enc)-3],
	}
	for name, buf := range cases {
		if _, err := DecodeLayout(buf); err == nil {
			t.Errorf("%s: DecodeLayout succeeded, want error", name)
		}
	}
	// Corrupt cell kind.
	bad := make([]byte, len(enc))
	copy(bad, enc)
	bad[8] = 250
	if _, err := DecodeLayout(bad); err == nil {
		t.Error("DecodeLayout accepted unknown cell kind")
	}
}

func TestDecodeLayoutRejectsOverlongRepeaterDelay(t *testing.T) {
	c := New(2, 1)
	c.Set(1, 0, Cell{Kind: Repeater, Delay: MaxDelay})
	enc := c.EncodeLayout()
	if _, err := DecodeLayout(enc); err != nil {
		t.Fatalf("a repeater at MaxDelay: %v", err)
	}
	enc[8+2+1]++ // the repeater's delay byte
	if _, err := DecodeLayout(enc); err == nil {
		t.Fatal("DecodeLayout accepted a repeater delay above MaxDelay")
	}
}

// layoutAllocated returns the bytes one DecodeLayout of buf allocated.
func layoutAllocated(buf []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodeLayout(buf)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeLayout feeds DecodeLayout arbitrary payloads: it is what the
// simulation function decodes from every request. It must not panic, must
// not allocate more than a small multiple of its input (a decoded
// construct holds its wiring, a four-byte index per cell and its state;
// other goroutines of the test binary allocate too, so only an excess that
// repeats is the decoder's), and whatever decodes must re-encode to the
// input: the format has one spelling of every construct. DecodeLayoutInto
// a construct in use, its state referenced from elsewhere, must decode the
// same, leave the construct as it was on error, and never write the
// referenced state. The seeds are the builders' layouts, mid-run.
func FuzzDecodeLayout(f *testing.F) {
	for _, c := range []*Construct{NewClock(3, 2), NewLampBank(2, 4), BuildSized(12), New(1, 1)} {
		c.Step()
		f.Add(c.EncodeLayout())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		into := NewClock(3, 2)
		into.Step()
		shared := into.State()
		if err := into.SetState(shared); err != nil {
			t.Fatal(err)
		}
		was, wasState := into.EncodeLayout(), bytes.Clone(shared)
		intoErr := DecodeLayoutInto(into, data)
		if !bytes.Equal(shared, wasState) {
			t.Fatal("DecodeLayoutInto wrote the state the construct referenced")
		}
		want := data
		if intoErr != nil {
			want = was
		}
		if got := into.EncodeLayout(); !bytes.Equal(got, want) {
			t.Fatalf("DecodeLayoutInto (error %v) left a construct encoding to %x, want %x", intoErr, got, want)
		}
		limit := uint64(4*len(data) + 1024)
		for try := 0; ; try++ {
			got := layoutAllocated(data)
			if got <= limit {
				break
			}
			if try == 3 {
				t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), got, limit)
			}
		}
		c, err := DecodeLayout(data)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodeLayout error %v, DecodeLayoutInto error %v", err, intoErr)
		}
		if err != nil {
			return
		}
		if got := c.EncodeLayout(); !bytes.Equal(got, data) {
			t.Fatalf("decoded layout re-encodes to %x, want %x", got, data)
		}
	})
}

func TestBuildSizedExactCounts(t *testing.T) {
	for _, target := range []int{12, 100, 252, 484, 1000} {
		c := BuildSized(target)
		if got := c.BlockCount(); got != target {
			t.Errorf("BuildSized(%d).BlockCount() = %d", target, got)
		}
	}
	// Tiny targets clamp to the minimum viable construct.
	if c := BuildSized(1); c.BlockCount() < 8 {
		t.Error("BuildSized(1) produced a degenerate construct")
	}
}

func TestBuildSizedIsActive(t *testing.T) {
	// The paper's constructs change state continuously; BuildSized output
	// must not be a static circuit.
	c := BuildSized(252)
	h0 := c.Hash()
	changed := false
	for i := 0; i < 16; i++ {
		c.Step()
		if c.Hash() != h0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("BuildSized construct never changed state")
	}
}

func TestStepWorkUnitsPositiveAndScaleWithSize(t *testing.T) {
	small := BuildSized(50)
	large := BuildSized(500)
	ws, wl := 0, 0
	for i := 0; i < 10; i++ {
		ws += small.Step()
		wl += large.Step()
	}
	if ws <= 0 || wl <= 0 {
		t.Fatal("work units must be positive")
	}
	if wl <= ws {
		t.Fatalf("larger construct must cost more: small=%d large=%d", ws, wl)
	}
}

func TestHashDistinguishesStatesQuick(t *testing.T) {
	// Flipping any cell's On bit must change the hash (no trivial
	// collisions on small perturbations).
	c := NewLampBank(3, 8)
	base := c.Hash()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := c.Clone()
		w, h := m.Size()
		for tries := 0; tries < 100; tries++ {
			x, y := r.Intn(w), r.Intn(h)
			cell := m.At(x, y)
			if cell.Kind == Empty {
				continue
			}
			cell.On = !cell.On
			m.Set(x, y, cell)
			return m.Hash() != base
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfBoundsCellAccessSafe(t *testing.T) {
	c := New(2, 2)
	c.Set(-1, 0, Cell{Kind: Wire})
	c.Set(0, 5, Cell{Kind: Wire})
	if got := c.At(-1, 0); got.Kind != Empty {
		t.Fatal("out-of-bounds read must return empty")
	}
	if c.BlockCount() != 0 {
		t.Fatal("out-of-bounds writes must be ignored")
	}
}

func TestNewPanicsOnInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}
