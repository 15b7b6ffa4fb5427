package rtserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/sim"
	"servo/internal/world"
)

// These tests pin "the wire is the model": a session sends its client
// exactly the chunks its player's send queue delivers, in that order, and
// nothing else decides.

// recordConn keeps every byte a session writes.
type recordConn struct {
	net.Conn // nil: only the methods below are called
	buf      bytes.Buffer
}

func (r *recordConn) Write(p []byte) (int, error)    { return r.buf.Write(p) }
func (*recordConn) SetWriteDeadline(time.Time) error { return nil }
func (*recordConn) Close() error                     { return nil }

// chunks decodes the MsgChunkData frames written so far and returns their
// positions in wire order.
func (r *recordConn) chunks(t *testing.T) []world.ChunkPos {
	t.Helper()
	var out []world.ChunkPos
	rd := netproto.NewReader(bytes.NewReader(r.buf.Bytes()))
	for {
		m, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("the recorded stream does not decode: %v", err)
		}
		if m.Type != netproto.MsgChunkData {
			continue
		}
		c, err := world.DecodeChunk(m.ChunkData)
		if err != nil {
			t.Fatalf("chunk frame %d does not decode: %v", len(out), err)
		}
		out = append(out, c.Pos)
	}
}

// recorder is the oracle: a plain player's behavior that records every
// chunk its send queue delivers and replays the moves it is given.
type recorder struct {
	next []mve.Action
	got  []world.ChunkPos
}

func (r *recorder) Actions(*rand.Rand, *mve.Player, *mve.Server) []mve.Action {
	a := r.next
	r.next = nil
	return a
}

func (r *recorder) ReceiveChunk(_ *mve.Server, cp world.ChunkPos) { r.got = append(r.got, cp) }

// rig is a bare virtual-clock game pushing every tick to one session on a
// recorded connection, beside a twin player that joins at the same spawn,
// makes the same moves, and so is delivered the same chunks.
type rig struct {
	t    *testing.T
	loop *sim.Loop
	game *mve.Server
	srv  *Server
	sess *session
	conn *recordConn
	twin *recorder
}

func newRig(t *testing.T, view int) *rig {
	loop := sim.NewLoop(1)
	game := mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: view})
	r := &rig{t: t, loop: loop, game: game, srv: NewServer(bareInstance{game}, Config{}),
		conn: &recordConn{}, twin: &recorder{}}
	r.srv.pushTicks = 1
	r.sess = addSession(r.srv, "client", r.conn)
	game.ConnectAt("twin", r.twin, 0, 0)
	game.Start()
	return r
}

// tick runs the game to its next tick without servicing the session's
// wake. An overlong tick delays the next one past a tick interval.
func (r *rig) tick() {
	for t0 := r.game.Tick(); r.game.Tick() == t0; {
		r.loop.RunUntil(r.loop.Now() + mve.TickInterval)
	}
}

// step runs one tick and writes the push it wakes the session with.
func (r *rig) step() {
	r.tick()
	writePush(r.t, r.sess, <-r.sess.wake)
}

// move sends the session and the twin toward (x, z) in the same tick.
func (r *rig) move(x, z float64) {
	r.sess.handle(netproto.Message{Type: netproto.MsgMove, DestX: x, DestZ: z, Speed: 1000})
	r.twin.next = []mve.Action{mve.MoveTo(x, z, 1000)}
}

// check fails unless the wire carries exactly the twin's deliveries, and
// as many as the session's player was counted.
func (r *rig) check(when string) {
	r.t.Helper()
	wire := r.conn.chunks(r.t)
	if fmt.Sprint(wire) != fmt.Sprint(r.twin.got) {
		r.t.Fatalf("%s: the wire carries %v, the send queue delivered %v", when, wire, r.twin.got)
	}
	if len(wire) != r.sess.player.ChunksReceived {
		r.t.Fatalf("%s: %d chunks on the wire, ChunksReceived = %d", when, len(wire), r.sess.player.ChunksReceived)
	}
}

// TestWireIsTheSendQueue: after every tick, the chunk frames a session has
// written decode to exactly the positions its player's send queue
// delivered, in order — through the first view and through moves that
// change it.
func TestWireIsTheSendQueue(t *testing.T) {
	r := newRig(t, 32)
	for i := 0; i < 60; i++ {
		switch i {
		case 15:
			r.move(40, 0)
		case 30:
			r.move(40, -56)
		case 45:
			r.move(-24, 8)
		}
		r.step()
		r.check(fmt.Sprintf("tick %d", r.game.Tick()))
	}
	if len(r.twin.got) < 40 {
		t.Fatalf("only %d chunks delivered: the moves did not change the view", len(r.twin.got))
	}
}

// TestUnloadedChunkIsSentAgain: a player walks past view distance plus the
// unload margin, stays through an unload scan, and comes back. The spawn
// chunk, unloaded and reloaded meanwhile, reaches the client a second time.
func TestUnloadedChunkIsSentAgain(t *testing.T) {
	r := newRig(t, 16)
	spawn := world.ChunkPos{}
	count := func() (n int) {
		for _, cp := range r.conn.chunks(t) {
			if cp == spawn {
				n++
			}
		}
		return n
	}
	for i := 0; i < 10; i++ {
		r.step()
	}
	if n := count(); n != 1 {
		t.Fatalf("the spawn chunk was sent %d times on the first view, want 1", n)
	}
	r.move(400, 0)
	for r.game.World().Loaded(spawn) {
		if r.game.Tick() > 300 {
			t.Fatal("the spawn chunk was never unloaded")
		}
		r.step()
	}
	r.move(0, 0)
	for count() < 2 {
		if r.game.Tick() > 600 {
			t.Fatalf("back at spawn by tick %d, and its chunk was not sent again", r.game.Tick())
		}
		r.step()
	}
	r.check("after the return")
}

// TestSkippedWakeIsCountedAndItsChunksFollow: while a session is still
// writing an earlier push, every due tick is a skipped wake, counted; the
// chunks delivered meanwhile wait in the outbox and all arrive, in order,
// with the next push.
func TestSkippedWakeIsCountedAndItsChunksFollow(t *testing.T) {
	r := newRig(t, 32)
	for i := 0; i < 4; i++ {
		r.step()
	}
	r.tick() // tick 5: the first view starts, and its push is left in the slot
	const busy = 4
	before := r.srv.Stats().WakesSkipped
	for i := 0; i < busy; i++ {
		r.tick()
	}
	if got := r.srv.Stats().WakesSkipped - before; got != busy {
		t.Fatalf("%d skipped wakes counted over %d busy ticks", got, busy)
	}
	waiting := len(r.sess.outbox)
	if waiting <= 4 {
		t.Fatalf("%d chunks wait in the outbox after %d busy ticks, want more than one tick's", waiting, busy)
	}
	writePush(t, r.sess, <-r.sess.wake) // the held push finishes
	r.tick()
	next := <-r.sess.wake
	if len(next.chunks) <= waiting {
		t.Fatalf("the next push carries %d chunks, want the %d that waited and this tick's", len(next.chunks), waiting)
	}
	writePush(t, r.sess, next)
	r.check("after the next push")
}

// splitRun returns enc with its first run of two or more layers split in
// two: the same chunk, in bytes Encode never writes (its runs are
// maximal). The run table follows the 14-byte header, the palette and the
// index-width byte; a run is a length − 1 byte and a 2-byte fill.
func splitRun(t *testing.T, enc []byte) []byte {
	t.Helper()
	for off := 14 + 2*(1+int(binary.LittleEndian.Uint16(enc[12:]))) + 1; off+3 <= len(enc); off += 3 {
		if n := enc[off]; n > 0 {
			out := append(slices.Clone(enc[:off]), 0, enc[off+1], enc[off+2], n-1)
			return append(out, enc[off+1:]...)
		}
	}
	t.Fatal("no run to split")
	return nil
}

// TestPushLeavesChunksSealed: a push never decodes a chunk. One sealed with
// bytes Encode would not write goes out as it was loaded, push after push;
// had a push decoded it, the next would carry the re-encoding, as a push
// after a block read does.
func TestPushLeavesChunksSealed(t *testing.T) {
	r := newRig(t, 16)
	r.step()
	pos := r.sess.player.Pos().Chunk()
	canonical := r.game.World().Chunk(pos).Encode()
	loaded := splitRun(t, canonical)
	sealed := new(world.Chunk)
	if err := sealed.LoadEncoded(loaded); err != nil {
		t.Fatal(err)
	}
	r.game.World().AddChunk(sealed)
	conn := &recordConn{}
	probe := addSession(r.srv, "probe", conn)
	pushed := func() []byte {
		conn.buf.Reset()
		if err := probe.sendChunks([]delivery{{r.game, pos}}); err != nil {
			t.Fatal(err)
		}
		m, err := netproto.NewReader(&conn.buf).Next()
		if err != nil || m.Type != netproto.MsgChunkData {
			t.Fatalf("push wrote %v (%v), want one chunk frame", m.Type, err)
		}
		return m.ChunkData
	}
	for i := range 3 {
		if got := pushed(); !bytes.Equal(got, loaded) {
			t.Fatalf("push %d carries %d bytes, not the %d the chunk was loaded from", i, len(got), len(loaded))
		}
	}
	sealed.At(0, 0, 0)
	if got := pushed(); !bytes.Equal(got, canonical) {
		t.Fatal("a push after a block read does not carry the re-encoding")
	}
}
