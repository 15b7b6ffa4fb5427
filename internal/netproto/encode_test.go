package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"servo/internal/terrain"
	"servo/internal/world"
)

// oracleEncode is the encoder AppendEncode replaced, kept as the reference:
// the body built in one buffer, then copied behind its length into a
// second.
func oracleEncode(m Message) []byte {
	body := make([]byte, 0, 64+len(m.ChunkData))
	body = append(body, byte(m.Type))
	switch m.Type {
	case MsgJoin:
		body = appendString(body, m.Name)
	case MsgMove:
		body = appendF64(body, m.DestX)
		body = appendF64(body, m.DestZ)
		body = appendF64(body, m.Speed)
	case MsgPlaceBlock, MsgBreakBlock:
		body = appendBlockPos(body, m.Pos)
		body = append(body, byte(m.Block.ID), m.Block.Data)
	case MsgChat, MsgChatBroadcast:
		body = appendString(body, m.Name)
		body = appendString(body, m.Text)
	case MsgSetInventory:
		body = append(body, m.Item)
	case MsgPing, MsgPong:
		body = binary.LittleEndian.AppendUint64(body, m.Nonce)
	case MsgWelcome:
		body = binary.LittleEndian.AppendUint64(body, uint64(m.PlayerID))
	case MsgChunkData:
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.ChunkData)))
		body = append(body, m.ChunkData...)
	case MsgStateUpdate:
		body = binary.LittleEndian.AppendUint64(body, m.Tick)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(m.Avatars)))
		for _, a := range m.Avatars {
			body = binary.LittleEndian.AppendUint64(body, uint64(a.ID))
			body = appendF64(body, a.X)
			body = appendF64(body, a.Z)
		}
	}
	out := make([]byte, 0, 4+len(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

func stateUpdate(avatars int) Message {
	m := Message{Type: MsgStateUpdate, Tick: 12345}
	for i := 0; i < avatars; i++ {
		m.Avatars = append(m.Avatars, AvatarState{ID: int64(i + 1), X: float64(i) / 3, Z: -float64(i)})
	}
	return m
}

// everyMessage is one message of every type, plus the shapes the push path
// sends most: a populated state update and a real chunk payload.
func everyMessage() []Message {
	return []Message{
		{Type: MsgJoin, Name: "alice"},
		{Type: MsgMove, DestX: 1.5, DestZ: -2.25, Speed: 3.75},
		{Type: MsgPlaceBlock, Pos: world.BlockPos{X: -5, Y: 64, Z: 9}, Block: world.Block{ID: world.Lamp, Data: 7}},
		{Type: MsgBreakBlock, Pos: world.BlockPos{X: 1, Y: 2, Z: 3}},
		{Type: MsgChat, Name: "bob", Text: "hello world"},
		{Type: MsgSetInventory, Item: 12},
		{Type: MsgPing, Nonce: 0xdeadbeef},
		{Type: MsgWelcome, PlayerID: 17},
		{Type: MsgChunkData, ChunkData: []byte{1, 2, 3, 4, 5}},
		{Type: MsgChunkData, ChunkData: (terrain.Default{Seed: 5}).Generate(world.ChunkPos{X: 2, Z: -3}).Encode()},
		{Type: MsgStateUpdate, Tick: 999},
		stateUpdate(64),
		{Type: MsgChatBroadcast, Name: "carol", Text: "hi"},
		{Type: MsgPong, Nonce: 42},
	}
}

// TestAppendEncodeMatchesOracle: the one-pass encoder writes the bytes the
// two-buffer encoder wrote, for every message type, into a nil, a roomy
// and a too-small destination, and sizes a fresh frame exactly.
func TestAppendEncodeMatchesOracle(t *testing.T) {
	for _, m := range everyMessage() {
		want := oracleEncode(m)
		if got := Encode(m); !bytes.Equal(got, want) {
			t.Errorf("%v: Encode differs from the oracle", m.Type)
		}
		if got := frameSize(m); got != len(want) {
			t.Errorf("%v: frameSize %d, frame is %d bytes", m.Type, got, len(want))
		}
		prefix := []byte("prefix")
		for _, dst := range [][]byte{prefix, append(make([]byte, 0, 1<<16), prefix...)} {
			got := AppendEncode(dst, m)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%v: AppendEncode behind a prefix (cap %d) differs from the oracle", m.Type, cap(dst))
			}
		}
	}
}

// TestAppendEncodeZeroAlloc is the push path's encoding contract: a
// 64-avatar state update and a real chunk payload encode into a warmed
// buffer without allocating.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	chunk := Message{Type: MsgChunkData, ChunkData: (terrain.Default{Seed: 5}).Generate(world.ChunkPos{X: 2, Z: -3}).Encode()}
	for name, m := range map[string]Message{"state-64": stateUpdate(64), "chunk": chunk} {
		buf := AppendEncode(nil, m)
		if allocs := testing.AllocsPerRun(100, func() { buf = AppendEncode(buf[:0], m) }); allocs != 0 {
			t.Errorf("%s: AppendEncode into a warmed buffer allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestReaderReusesBody: a Reader decodes out of one body buffer, so a
// message it returned must not change when the next one is read.
func TestReaderReusesBody(t *testing.T) {
	var stream bytes.Buffer
	msgs := everyMessage()
	for _, m := range msgs {
		stream.Write(Encode(m))
	}
	r := NewReader(&stream)
	var got []Message
	for range msgs {
		m, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	for i, m := range got {
		if !bytes.Equal(Encode(m), Encode(msgs[i])) {
			t.Errorf("message %d (%v) changed after later reads", i, m.Type)
		}
	}
}

// hostileAvatarCount is a 13-byte state-update body whose count claims
// 61 680 avatars: it passed the old guard (MaxMessageSize/17) and was
// handed a 1.48 MB slice before the first avatar turned out to be missing.
func hostileAvatarCount() []byte {
	body := []byte{byte(MsgStateUpdate)}
	body = binary.LittleEndian.AppendUint64(body, 7)
	return binary.LittleEndian.AppendUint32(body, 61680)
}

// decodeAllocated returns the bytes one Decode of body allocated.
func decodeAllocated(body []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = Decode(body)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeAllocation fails t if decoding body allocates more than a
// small multiple of its length: every decoded field is a copy of wire
// bytes at most as large as itself. Other goroutines of the test binary
// allocate too, so only an excess that repeats is the decoder's.
func checkDecodeAllocation(t *testing.T, body []byte) {
	t.Helper()
	limit := uint64(2*len(body) + 1024)
	for try := 0; ; try++ {
		got := decodeAllocated(body)
		if got <= limit {
			return
		}
		if try == 3 {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(body), got, limit)
		}
	}
}

func TestDecodeAllocationBounded(t *testing.T) {
	body := hostileAvatarCount()
	if _, err := Decode(body); err == nil {
		t.Fatal("a count with no avatars behind it decoded")
	}
	checkDecodeAllocation(t, body)
}

// FuzzDecode feeds Decode arbitrary bodies. It must not panic, must not
// allocate more than a small multiple of its input, and whatever decodes
// must re-encode to a frame that decodes to the same message (compared as
// encodings: decoded floats may be NaN). The seeds are one body of every
// message type from Encode plus the hostile files under
// testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	for _, m := range everyMessage() {
		f.Add(Encode(m)[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAllocation(t, body)
		m, err := Decode(body)
		if err != nil {
			return
		}
		frame := Encode(m)
		if len(frame) != frameSize(m) {
			t.Fatalf("%v: frame is %d bytes, frameSize says %d", m.Type, len(frame), frameSize(m))
		}
		again, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("%v: re-encoded message does not decode: %v", m.Type, err)
		}
		if !bytes.Equal(Encode(again), frame) {
			t.Fatalf("%v: re-encoded message decodes to a different message", m.Type)
		}
	})
}

// countingReader counts the bytes a Reader pulled from the stream.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReader runs an arbitrary stream through Reader.Next until it fails.
// It must not panic, must stop, must return what Decode returns for each
// frame's body, must not alter a message it already returned (the body
// buffer is reused), and must not read a byte past the header of a frame
// it rejects as oversized. The stream arrives one byte per Read so that
// what the Reader consumed is what it asked for. The seeds are a stream of
// every message type plus the files under testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
	var all []byte
	for _, m := range everyMessage() {
		all = append(all, Encode(m)...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, stream []byte) {
		src := &countingReader{r: iotest.OneByteReader(bytes.NewReader(stream))}
		r := NewReader(src)
		type seen struct {
			m     Message
			frame []byte
		}
		var returned []seen
		off := 0 // start of the frame Next is about to read
		for {
			m, err := r.Next()
			if off+4 > len(stream) {
				if err == nil {
					t.Fatalf("a message out of %d trailing bytes", len(stream)-off)
				}
				break
			}
			n := int(binary.LittleEndian.Uint32(stream[off:]))
			if n > MaxMessageSize {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("a %d-byte frame: %v, want ErrFrameTooLarge", n, err)
				}
				if src.n != off+4 {
					t.Fatalf("read %d bytes of the stream, the oversized header ends at %d", src.n, off+4)
				}
				break
			}
			if off+4+n > len(stream) {
				if err == nil {
					t.Fatal("a message out of a truncated frame")
				}
				break
			}
			want, werr := Decode(stream[off+4 : off+4+n])
			if (err == nil) != (werr == nil) {
				t.Fatalf("Next says %v, Decode of the same body says %v", err, werr)
			}
			if err != nil {
				break
			}
			frame := Encode(m)
			if !bytes.Equal(frame, Encode(want)) {
				t.Fatalf("%v: Next and Decode disagree", m.Type)
			}
			returned = append(returned, seen{m, frame})
			off += 4 + n
		}
		for _, s := range returned {
			if !bytes.Equal(Encode(s.m), s.frame) {
				t.Fatalf("%v: a returned message changed under later reads", s.m.Type)
			}
		}
	})
}
