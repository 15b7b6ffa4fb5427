package sc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// agrees checks every read a Construct offers against the oracle.
func agrees(t *testing.T, op int, c *Construct, ref *oracle) {
	t.Helper()
	if got, want := c.State(), ref.State(); !bytes.Equal(got, want) {
		t.Fatalf("op %d: State %x, oracle %x", op, got, want)
	}
	if got, want := c.Hash(), ref.Hash(); got != want {
		t.Fatalf("op %d: Hash %x, oracle %x", op, got, want)
	}
	if got, want := c.BlockCount(), ref.BlockCount(); got != want {
		t.Fatalf("op %d: BlockCount %d, oracle %d", op, got, want)
	}
	if c.step != ref.step {
		t.Fatalf("op %d: Steps %d, oracle %d", op, c.step, ref.step)
	}
	if got, want := c.EncodeLayout(), ref.EncodeLayout(); !bytes.Equal(got, want) {
		t.Fatalf("op %d: EncodeLayout %x, oracle %x", op, got, want)
	}
	for y := -1; y <= ref.h; y++ {
		for x := -1; x <= ref.w; x++ {
			want := ref.At(x, y)
			if want.Kind == Empty {
				want = Cell{Delay: want.Delay} // an empty cell has no state
			}
			if got := c.At(x, y); got != want {
				t.Fatalf("op %d: At(%d,%d) = %+v, oracle %+v", op, x, y, got, want)
			}
		}
	}
}

// opCell draws a cell from a selector (kind in the low six bits mod 6, on
// flag, long delay) and a value byte: powers past MaxPower, and delays
// that are mostly short (so repeaters flip) but reach MaxDelay.
func opCell(b, sel byte) Cell {
	cell := Cell{Kind: CellKind(sel & 0x3f % 6), On: sel&0x40 != 0, Power: b % 17, Timer: b & 0x7f, Delay: b % 4}
	if sel&0x80 != 0 {
		cell.Delay = b % (MaxDelay + 1)
	}
	return cell
}

// opState derives a state vector from s: every (a%5+1)-th byte xor-ed
// with b, so powers, on flags and timers all move.
func opState(s StateVector, a int, b byte) StateVector {
	for j := range s {
		if j%(a%5+1) == 0 {
			s[j] ^= b
		}
	}
	return s
}

// referenced is a state vector a construct was handed by SetState, which
// it reads in place: the vector, as it was handed over, and another
// construct reading the same vector.
type referenced struct {
	s, was StateVector
	peer   *Construct
	result Result // the simulation s came from, if any
	states []StateVector
}

// unchanged fails t unless the vector, the peer and the result are still
// what they were when the vector was handed over.
func (r *referenced) unchanged(t *testing.T, op int) {
	t.Helper()
	if !bytes.Equal(r.s, r.was) {
		t.Fatalf("op %d: a referenced state vector changed from %x to %x", op, r.was, r.s)
	}
	if got := r.peer.State(); !bytes.Equal(got, r.was) {
		t.Fatalf("op %d: a construct sharing a state vector reads %x, want %x", op, got, r.was)
	}
	for i, s := range r.result.States {
		if !bytes.Equal(s, r.states[i]) {
			t.Fatalf("op %d: state %d of a referenced result changed from %x to %x", op, i, r.states[i], s)
		}
	}
}

// constructOps interprets data as a grid size (two bytes) and then a
// sequence of four-byte operations — kind (mod 7: Set, Set empty, Step,
// SetState, Clone, layout round trip, AppendLayout with another state),
// a cell or count byte, a value byte and a selector — applied both to a
// Construct and to the oracle, the engine as it was before it was
// compiled. After every one it holds the construct's reads, its hash, its
// block count and its layout to the oracle's; Step's work units, which
// bill the FaaS and set the tick, must match step for step.
//
// SetState references its vector (selector bit 1: a state from a
// Simulate result of the construct), and a layout round trip may decode
// into the construct itself (selector bit 0). Every vector a construct
// was handed, another construct given the same vector and the result it
// came from must come out of every later operation unchanged.
func constructOps(t *testing.T, data []byte) {
	const maxOps = 64
	if len(data) < 2 {
		return
	}
	w, h := 1+int(data[0])%12, 1+int(data[1])%6
	c, ref := New(w, h), newOracle(w, h)
	var refs []*referenced
	data = data[2:]
	for op := 0; op < maxOps && len(data) >= 4; op, data = op+1, data[4:] {
		kind, a, b, sel := data[0]%7, int(data[1]), data[2], data[3]
		x, y := a%(w*h)%w, a%(w*h)/w
		switch kind {
		case 0:
			c.Set(x, y, opCell(b, sel))
			ref.Set(x, y, opCell(b, sel))
		case 1:
			c.Set(x, y, Cell{})
			ref.Set(x, y, Cell{})
		case 2:
			for i := 0; i <= a%8; i++ {
				if got, want := c.Step(), ref.Step(); got != want {
					t.Fatalf("op %d: Step work %d, oracle %d", op, got, want)
				}
			}
		case 3:
			r := &referenced{s: opState(ref.State(), a, b)}
			if sel&2 != 0 {
				r.result = Simulate(c, 1+a%4, sel&4 != 0)
				r.s = r.result.States[len(r.result.States)-1]
				for _, s := range r.result.States {
					r.states = append(r.states, bytes.Clone(s))
				}
			}
			if sel&1 != 0 {
				r.s = append(r.s, b) // one byte too many: refused, nothing changes
			}
			got, want := c.SetState(r.s), ref.SetState(r.s)
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d: SetState error %v, oracle %v", op, got, want)
			}
			if got == nil {
				r.was, r.peer = bytes.Clone(r.s), c.Clone()
				if err := r.peer.SetState(r.s); err != nil {
					t.Fatal(err)
				}
				refs = append(refs, r)
			}
		case 4:
			// Carry on with a clone; scribbling over the original must not show.
			orig := c
			c, ref = orig.Clone(), ref.Clone()
			orig.Set(0, 0, Cell{Kind: Source, On: true})
			orig.Step()
			orig.SetState(make(StateVector, 2*orig.BlockCount()))
		case 5:
			var err error
			if sel&1 != 0 {
				err = DecodeLayoutInto(c, c.EncodeLayout())
			} else {
				c, err = DecodeLayout(c.EncodeLayout())
			}
			if err != nil {
				t.Fatalf("op %d: decode of an encoded layout: %v", op, err)
			}
			if ref, err = oracleDecodeLayout(ref.EncodeLayout()); err != nil {
				t.Fatal(err)
			}
		case 6:
			// Encode with a state the construct does not hold, after a
			// prefix (a request header); the construct itself stays put.
			s := opState(ref.State(), a, b)
			enc, err := c.AppendLayout([]byte{sel}, s)
			if err != nil {
				t.Fatalf("op %d: AppendLayout: %v", op, err)
			}
			agrees(t, op, c, ref)
			if enc[0] != sel {
				t.Fatalf("op %d: AppendLayout overwrote its prefix", op)
			}
			if c, err = DecodeLayout(enc[1:]); err != nil {
				t.Fatalf("op %d: decode of an appended layout: %v", op, err)
			}
			ref = ref.Clone()
			ref.step = 0
			if err := ref.SetState(s); err != nil {
				t.Fatal(err)
			}
		}
		agrees(t, op, c, ref)
		for _, r := range refs {
			r.unchanged(t, op)
		}
	}
}

// FuzzConstructOps is the model-based test of the compiled construct
// engine; see constructOps. Its seeds are the files under
// testdata/fuzz/FuzzConstructOps, named for what each sequence exercises;
// go test runs them in tier-1.
func FuzzConstructOps(f *testing.F) {
	f.Fuzz(constructOps)
}

// TestConstructOpsRandom drives constructOps with random sequences.
func TestConstructOpsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		data := make([]byte, 2+4*64)
		r.Read(data)
		constructOps(t, data)
	}
}

// TestBuildersMatchOracle steps the builders' constructs beside the oracle
// decoded from their layouts, and pins each builder's layout after 300
// steps and the work those steps cost: the bytes and work units the
// engine produced before it was compiled.
func TestBuildersMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		c      *Construct
		layout string
		work   int
	}{
		{"NewClock(3,2)", NewClock(3, 2), "97302f88cf3a0ad09b7c5c45dbc1f9fac781d7c037bf8e97c7e315f3fc626205", 22344},
		{"NewClock(80,2)", NewClock(80, 2), "01badbc08eecc5c3872d42278302a623f1d989134383be87537db61d4dccb171", 367110},
		{"NewLampBank(4,8)", NewLampBank(4, 8), "658fd0bfd597e3364c62d504fcb6465b4ee37cfba77073700afe6a420586f5fe", 30900},
		{"BuildSized(250)", BuildSized(250), "89f1a8ca76c084b7575842a00e1825e5fd557ee85660a4575f52b5ca8d4e57f8", 184350},
		{"BuildSized(484)", BuildSized(484), "08ca085fb7c71f404b9a8915556c52606dce4c466dd0bc8f32b8f48922493888", 319350},
	} {
		ref, err := oracleDecodeLayout(tc.c.EncodeLayout())
		if err != nil {
			t.Fatal(err)
		}
		work := 0
		for i := 0; i < 300; i++ {
			got, want := tc.c.Step(), ref.Step()
			if got != want {
				t.Fatalf("%s: step %d work %d, oracle %d", tc.name, i, got, want)
			}
			if tc.c.Hash() != ref.Hash() {
				t.Fatalf("%s: state diverged from the oracle at step %d", tc.name, i)
			}
			work += got
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.c.EncodeLayout())); got != tc.layout || work != tc.work {
			t.Errorf("%s: layout %s and work %d after 300 steps, pinned %s and %d", tc.name, got, work, tc.layout, tc.work)
		}
	}
}
