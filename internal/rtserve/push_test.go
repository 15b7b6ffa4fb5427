package rtserve

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"servo"
	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/sim"
)

// These tests pin the push path in tick space: which tick's update shows
// an action, how many ticks apart a quiet session's updates are, how many
// frames a tick builds. Milliseconds are the end-to-end ledger's business
// (rt-loopback).

// startDefaultServer is startServer at the default cadence: a quiet
// session is pushed every quietPushTicks ticks.
func startDefaultServer(t *testing.T, seed int64) (*servo.Instance, *Server, string) {
	t.Helper()
	return startServerWith(t, servo.Config{Seed: seed}, quietPushTicks)
}

// rawClient is a protocol connection the test reads message by message.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	r    *netproto.Reader
	id   int64
}

// join sends MsgJoin over conn and reads the welcome.
func join(t *testing.T, conn net.Conn, name string) *rawClient {
	t.Helper()
	c := &rawClient{t: t, conn: conn, r: netproto.NewReader(conn)}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := netproto.Write(conn, netproto.Message{Type: netproto.MsgJoin, Name: name}); err != nil {
		t.Fatal(err)
	}
	m, err := c.r.Next()
	if err != nil || m.Type != netproto.MsgWelcome {
		t.Fatalf("no welcome: %v, %v", m.Type, err)
	}
	c.id = m.PlayerID
	return c
}

func dialRaw(t *testing.T, addr, name string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return join(t, conn, name)
}

// nextUpdate reads up to the next state update and returns its tick and
// the client's own avatar position.
func (c *rawClient) nextUpdate() (tick uint64, x, z float64) {
	c.t.Helper()
	for {
		m, err := c.r.Next()
		if err != nil {
			c.t.Fatalf("reading updates: %v", err)
		}
		if m.Type != netproto.MsgStateUpdate {
			continue
		}
		for _, a := range m.Avatars {
			if a.ID == c.id {
				return m.Tick, a.X, a.Z
			}
		}
		c.t.Fatalf("update %d does not list the client's own avatar", m.Tick)
	}
}

// TestActionShowsInNextTicksUpdate: a move sent right after the update
// stamped tick T is consumed by tick T+1, and that tick's commit pushes
// the session its update — the acknowledgement is one tick away whatever
// PushInterval is. (A free-running 100 ms pusher answered in T+2 or T+3.)
func TestActionShowsInNextTicksUpdate(t *testing.T) {
	_, _, addr := startDefaultServer(t, 11)
	c := dialRaw(t, addr, "acker")
	const trials = 20
	next := 0
	for i := 0; i < trials; i++ {
		sentAfter, x0, z0 := c.nextUpdate()
		dest := float64(4 * (i + 1))
		if err := netproto.Write(c.conn, netproto.Message{Type: netproto.MsgMove, DestX: dest, DestZ: 0, Speed: 1000}); err != nil {
			t.Fatal(err)
		}
		for {
			tick, x, z := c.nextUpdate()
			if math.Hypot(x-x0, z-z0) > 1e-3 {
				if tick == sentAfter+1 {
					next++
				} else {
					t.Logf("trial %d: sent after tick %d, displaced in tick %d", i, sentAfter, tick)
				}
				break
			}
		}
	}
	if next < trials-2 {
		t.Fatalf("%d of %d moves showed in the next tick's update, want at least %d", next, trials, trials-2)
	}
}

// TestPushTicks: on the virtual clock a quiet session is woken on every
// quietPushTicks-th tick exactly, and on no tick between.
func TestPushTicks(t *testing.T) {
	loop := sim.NewLoop(1)
	game := mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 16})
	srv := NewServer(bareInstance{game}, Config{})
	c := addSession(srv, "quiet", sinkConn{})
	game.Start()
	var woken []uint64
	for i := 0; i < 10; i++ {
		loop.RunUntil(loop.Now() + mve.TickInterval)
		select {
		case <-c.wake:
			woken = append(woken, game.Tick())
		default:
		}
	}
	// Joining counts as acting, so tick 1 pushes; then every second tick.
	if want := []uint64{1, 3, 5, 7, 9}; fmt.Sprint(woken) != fmt.Sprint(want) {
		t.Fatalf("woken on ticks %v, want %v", woken, want)
	}
}

// TestQuietSessionCadence: a client that sends nothing is updated every
// quietPushTicks ticks exactly over the wall clock too.
func TestQuietSessionCadence(t *testing.T) {
	_, srv, addr := startDefaultServer(t, 12)
	c := dialRaw(t, addr, "quiet")
	prev, _, _ := c.nextUpdate()
	for i := 0; i < 10; i++ {
		tick, _, _ := c.nextUpdate()
		if tick-prev != srv.pushTicks {
			t.Fatalf("updates stamped %d then %d, want %d ticks apart", prev, tick, srv.pushTicks)
		}
		prev = tick
	}
}

// TestFrameSharedAcrossSessions: with eight sessions a tick builds at most
// one frame, and every due session is handed that one.
func TestFrameSharedAcrossSessions(t *testing.T) {
	inst, srv, addr := startDefaultServer(t, 13)
	const clients = 8
	for i := 0; i < clients; i++ {
		c, err := Dial(addr, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	waitFor(t, "eight sessions", func() bool { return srv.Stats().Sessions == clients })
	sample := func() (tick uint64, st Stats) {
		inst.Locked(func() { tick, st = inst.Server().Tick(), srv.Stats() })
		return
	}
	tick0, st0 := sample()
	time.Sleep(time.Second)
	tick1, st1 := sample()
	ticks, frames, pushes := int64(tick1-tick0), st1.FramesBuilt-st0.FramesBuilt, st1.Pushes-st0.Pushes
	if frames == 0 || frames > ticks {
		t.Fatalf("%d frames built in %d ticks, want between 1 and one per tick", frames, ticks)
	}
	// Every session is pushed once per interval, whichever ticks they
	// fall on; were frames built per session, the two counts would be equal.
	if perInterval := ticks / int64(srv.pushTicks); pushes < (clients-1)*(perInterval-1) || pushes > clients*frames {
		t.Fatalf("%d pushes from %d frames in %d ticks: want about %d, at most %d a frame",
			pushes, frames, ticks, clients*perInterval, clients)
	}
}

// bareInstance serves a bare game server on a virtual clock: the test
// steps ticks itself, and nothing needs locking.
type bareInstance struct{ srv *mve.Server }

func (b bareInstance) Server() *mve.Server { return b.srv }
func (b bareInstance) ConnectBehavior(name string, beh mve.Behavior) *mve.Player {
	return b.srv.ConnectAt(name, beh, 0, 0)
}
func (b bareInstance) Disconnect(p *mve.Player) bool { return b.srv.Disconnect(p.ID) }
func (b bareInstance) Locked(fn func())              { fn() }

// sinkConn accepts every write at once: the far end of a session whose
// pushes the test only counts.
type sinkConn struct {
	net.Conn // nil: only the methods below are called
}

func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (sinkConn) Close() error                     { return nil }

// addSession joins a hand-made session on conn, as serveConn would have.
func addSession(s *Server, name string, conn net.Conn) *session {
	c := s.newSession(conn)
	c.player = s.inst.ConnectBehavior(name, c)
	s.sessions[c] = struct{}{}
	return c
}

// writePush writes p as the session's push goroutine would.
func writePush(t *testing.T, c *session, p push) {
	t.Helper()
	if err := c.write(p.frame); err != nil {
		t.Fatal(err)
	}
	if err := c.sendChunks(p.chunks); err != nil {
		t.Fatal(err)
	}
}

// settledServer builds a virtual-clock game server with n sessions pushed
// every tick, each streamed everything its send queue delivered: their
// queues and outboxes are empty, so a commit has nothing to do but the
// state update.
func settledServer(t *testing.T, n int) (*sim.Loop, *mve.Server, *Server) {
	t.Helper()
	loop := sim.NewLoop(1)
	game := mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 16})
	srv := NewServer(bareInstance{game}, Config{})
	srv.pushTicks = 1
	for i := 0; i < n; i++ {
		addSession(srv, fmt.Sprintf("s%d", i), sinkConn{})
	}
	game.Start()
	last := make(map[*session]push)
	for tick := 0; tick < 10; tick++ {
		loop.RunUntil(loop.Now() + mve.TickInterval)
		for c := range srv.sessions {
			p := <-c.wake
			writePush(t, c, p)
			last[c] = p
		}
	}
	for c := range srv.sessions {
		if len(last[c].chunks) != 0 || len(c.outbox) != 0 || c.player.ChunksReceived == 0 {
			t.Fatalf("session not settled after 10 pushes: the last carried %d chunks, %d wait, %d received",
				len(last[c].chunks), len(c.outbox), c.player.ChunksReceived)
		}
	}
	return loop, game, srv
}

// TestCommitPushAllocs is the push path's allocation contract: at 1 and at
// 64 settled sessions a whole tick and its commit allocate one object —
// the frame every due session shares — and a session writing that frame
// to its connection allocates nothing.
func TestCommitPushAllocs(t *testing.T) {
	for _, n := range []int{1, 64} {
		loop, game, srv := settledServer(t, n)
		var last push
		before := srv.Stats()
		const runs = 50
		commit := testing.AllocsPerRun(runs, func() {
			loop.RunUntil(loop.Now() + mve.TickInterval)
			for c := range srv.sessions {
				last = <-c.wake
			}
		})
		if commit > 1 {
			t.Errorf("%d sessions: a tick and its commit allocate %.1f objects, want at most 1 (the frame)", n, commit)
		}
		after := srv.Stats()
		if frames, pushes := after.FramesBuilt-before.FramesBuilt, after.Pushes-before.Pushes; frames != runs+1 || pushes != int64(n)*frames {
			t.Errorf("%d sessions: %d frames and %d pushes in %d ticks", n, frames, pushes, runs+1)
		}
		if len(last.chunks) != 0 {
			t.Errorf("%d sessions: a settled session was handed %d chunks", n, len(last.chunks))
		}
		m, err := netproto.Decode(last.frame[4:])
		if err != nil || m.Tick != game.Tick() || len(m.Avatars) != n {
			t.Errorf("%d sessions: frame decodes to tick %d with %d avatars (%v), want tick %d with %d",
				n, m.Tick, len(m.Avatars), err, game.Tick(), n)
		}
		for c := range srv.sessions {
			if write := testing.AllocsPerRun(runs, func() { c.write(last.frame) }); write != 0 {
				t.Errorf("%d sessions: a session push allocates %.1f objects, want 0", n, write)
			}
			break
		}
	}
}

// TestActionsReusesBatch: draining the network queue into the game loop
// allocates nothing once the batch has warmed, and marks the session as
// having acted.
func TestActionsReusesBatch(t *testing.T) {
	_, _, srv := settledServer(t, 1)
	for c := range srv.sessions {
		move := netproto.Message{Type: netproto.MsgMove, DestX: 1, DestZ: 1, Speed: 1}
		drain := func() {
			c.handle(move)
			c.handle(move)
			if got := len(c.Actions(nil, nil, nil)); got != 2 {
				t.Fatalf("Actions returned %d actions, want 2", got)
			}
		}
		drain()
		if !c.acted {
			t.Fatal("a session whose actions were consumed is not marked acted")
		}
		if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
			t.Fatalf("queueing and draining two actions allocates %.1f objects, want 0", allocs)
		}
	}
}

// TestActedSessionIsPushedByThatTick: at a long quiet cadence a session is
// still due the moment a tick consumes its action, and only that session.
func TestActedSessionIsPushedByThatTick(t *testing.T) {
	loop := sim.NewLoop(1)
	game := mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 16})
	srv := NewServer(bareInstance{game}, Config{})
	srv.pushTicks = 20
	actor, bystander := addSession(srv, "actor", sinkConn{}), addSession(srv, "bystander", sinkConn{})
	game.Start()
	step := func() { loop.RunUntil(loop.Now() + mve.TickInterval) }
	step() // both are new: both are due
	<-actor.wake
	<-bystander.wake

	step()
	actor.handle(netproto.Message{Type: netproto.MsgMove, DestX: 8, DestZ: 0, Speed: 1000})
	step()
	select {
	case p := <-actor.wake:
		m, err := netproto.Decode(p.frame[4:])
		if err != nil || m.Tick != game.Tick() {
			t.Fatalf("the acknowledgement is stamped tick %d (%v), want %d", m.Tick, err, game.Tick())
		}
		for _, a := range m.Avatars {
			if a.ID == int64(actor.player.ID) && a.X == 0 {
				t.Fatal("the acknowledgement does not show the move")
			}
		}
	default:
		t.Fatal("the tick that consumed the action did not wake its session")
	}
	select {
	case <-bystander.wake:
		t.Fatal("a quiet session was pushed before its interval")
	default:
	}
}

// TestCloseRemovesCommitHook: after Close the game loop no longer calls
// into the server — a session left behind is never woken.
func TestCloseRemovesCommitHook(t *testing.T) {
	loop, _, srv := settledServer(t, 1)
	srv.Close()
	loop.RunUntil(loop.Now() + 10*mve.TickInterval)
	for c := range srv.sessions {
		select {
		case <-c.wake:
			t.Fatal("a commit reached the server after Close")
		default:
		}
	}
}

// TestActionQueueOverflowIsCounted: the 257th action a tick has not
// drained is dropped, and says so.
func TestActionQueueOverflowIsCounted(t *testing.T) {
	_, _, srv := settledServer(t, 1)
	for c := range srv.sessions {
		for i := 0; i < cap(c.actions)+44; i++ {
			c.handle(netproto.Message{Type: netproto.MsgSetInventory, Item: 1})
		}
	}
	if got := srv.Stats().ActionsDropped; got != 44 {
		t.Fatalf("ActionsDropped = %d, want 44", got)
	}
}

// serve runs serveConn over one end of a pipe and returns the other end
// and a channel closed when serveConn has returned.
func serve(srv *Server) (client net.Conn, released <-chan struct{}) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(server)
	}()
	return client, done
}

func awaitRelease(t *testing.T, what string, released <-chan struct{}) {
	t.Helper()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still holds its goroutine", what)
	}
}

// TestStalledPeerIsClosedAndCounted: a client that joins and then stops
// reading is closed when a write to it hits the deadline, while another
// session's updates keep their cadence — no lock is held across a write.
// net.Pipe has no buffer, so the first unread push is the one that stalls.
func TestStalledPeerIsClosedAndCounted(t *testing.T) {
	_, srv, _ := startDefaultServer(t, 14)
	srv.ioTimeout = 150 * time.Millisecond

	readerConn, readerReleased := serve(srv)
	reader := join(t, readerConn, "reader")
	stalledConn, stalledReleased := serve(srv)
	join(t, stalledConn, "stalled") // reads the welcome, and nothing after it

	prev, _, _ := reader.nextUpdate()
	for stalled := false; !stalled; {
		tick, _, _ := reader.nextUpdate()
		if tick-prev != srv.pushTicks {
			t.Fatalf("beside a stalled session updates came stamped %d then %d, want %d ticks apart", prev, tick, srv.pushTicks)
		}
		prev = tick
		select {
		case <-stalledReleased:
			stalled = true
		default:
		}
	}
	if st := srv.Stats(); st.SessionsStalled != 1 || st.Sessions != 1 {
		t.Fatalf("after the stall: %+v, want 1 stalled and 1 session left", st)
	}
	readerConn.Close()
	awaitRelease(t, "the closed reader", readerReleased)
}

// TestSilentConnectionIsReleased: a connection that never sends MsgJoin is
// dropped at the join deadline and counted.
func TestSilentConnectionIsReleased(t *testing.T) {
	_, srv, _ := startDefaultServer(t, 15)
	srv.ioTimeout = 100 * time.Millisecond
	conn, released := serve(srv)
	defer conn.Close()
	awaitRelease(t, "a connection that never joined", released)
	if st := srv.Stats(); st.JoinTimeouts != 1 || st.Sessions != 0 {
		t.Fatalf("after the join deadline: %+v, want 1 join timeout and no session", st)
	}
}
