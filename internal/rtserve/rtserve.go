// Package rtserve serves a real-time MVE instance to network clients over
// the internal/netproto protocol. cmd/servo-server is a thin wrapper around
// this package; tests drive it over loopback TCP.
//
// Each client session owns a player whose actions are fed from the network
// (a queue drained by the game loop each tick) and receives state updates
// plus the chunks its player's send queue delivers. Pushes ride the tick
// commit: the server installs the game loop's commit hook, and at the end
// of every tick decides which sessions are due — one whose actions the
// tick just consumed (its update is the acknowledgement, one tick after
// the action arrived), or one whose last update is two ticks old. If any
// is, the state update is encoded once, and every due session's goroutine
// is woken to write those same bytes to its socket, followed by the chunks
// delivered to it since its last push; only a push with chunks takes the
// game-loop lock. Lock order is game-loop lock, then Server.mu, never the
// reverse.
//
// Servo's backend is invisible at this layer — the protocol is identical
// for baseline and serverless servers (paper requirement R4).
package rtserve

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/world"
)

// Instance is the subset of the public servo.Instance surface rtserve
// needs; it is satisfied by *servo.Instance.
type Instance interface {
	Server() *mve.Server
	ConnectBehavior(name string, b mve.Behavior) *mve.Player
	// Disconnect reports whether a session was actually removed; rtserve
	// tears the connection down either way.
	Disconnect(p *mve.Player) bool
	Locked(fn func())
}

// Config tunes the network server.
type Config struct {
	// Logf receives connection events; nil silences logging.
	Logf func(format string, args ...any)
}

// ioTimeout bounds every session write and the wait for a connection's
// MsgJoin. An established client may stay silent for as long as it likes;
// one that stops reading is closed after this long.
const ioTimeout = 10 * time.Second

// quietPushTicks is the longest a quiet session waits between updates:
// 100 ms at the default 50 ms tick.
const quietPushTicks = 2

// Stats counts what the server did since it was built.
type Stats struct {
	Sessions        int   // connected right now
	FramesBuilt     int64 // state updates encoded (at most one per tick)
	Pushes          int64 // state updates handed to sessions
	WakesSkipped    int64 // due pushes skipped because the session was still writing its previous one
	ActionsDropped  int64 // client actions discarded because a session's queue was full
	SessionsStalled int64 // sessions closed because a write hit its deadline
	JoinTimeouts    int64 // connections released without ever sending MsgJoin
}

// Server accepts protocol connections for one instance.
type Server struct {
	inst Instance
	cfg  Config
	// pushTicks and ioTimeout are the package constants; in-package tests
	// change them.
	pushTicks uint64
	ioTimeout time.Duration

	// avatars is the commit hook's reusable avatar batch: every local
	// player and ghost, refilled under the game-loop lock each time a
	// frame is built and fully encoded before the hook returns.
	avatars []netproto.AvatarState

	mu       sync.Mutex
	sessions map[*session]struct{}
	stats    Stats
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a network server for inst and installs its push path
// as the commit hook of the instance's game loop; Close removes it.
func NewServer(inst Instance, cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{inst: inst, cfg: cfg, pushTicks: quietPushTicks, ioTimeout: ioTimeout, sessions: make(map[*session]struct{})}
	inst.Locked(func() { inst.Server().SetCommitHook(s.onCommit) })
	return s
}

// Serve accepts connections on ln until the listener closes or Close is
// called. It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close terminates all sessions, waits for their goroutines and removes
// the commit hook.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.inst.Locked(func() { s.inst.Server().SetCommitHook(nil) })
}

// Stats returns the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Sessions = len(s.sessions)
	return st
}

// count applies one counter update under the server lock.
func (s *Server) count(update func(*Stats)) {
	s.mu.Lock()
	update(&s.stats)
	s.mu.Unlock()
}

// onCommit is the game loop's commit hook: it runs under the game-loop
// lock once the tick's effects are visible, finds the sessions that are
// due an update, encodes the update once if there are any, and wakes them,
// handing each the chunks delivered to it since its last push. The frame
// is never written again after it is handed out, so any number of session
// goroutines may be sending it at once.
func (s *Server) onCommit() {
	srv := s.inst.Server()
	tick := srv.Tick()
	s.mu.Lock()
	defer s.mu.Unlock()
	var frame []byte
	for c := range s.sessions {
		if !c.acted && tick-c.lastPushTick < s.pushTicks {
			continue
		}
		if frame == nil {
			s.avatars = appendAvatars(s.avatars[:0], srv)
			frame = netproto.AppendEncode(nil, netproto.Message{
				Type: netproto.MsgStateUpdate, Tick: tick, Avatars: s.avatars,
			})
			s.stats.FramesBuilt++
		}
		c.acted, c.lastPushTick = false, tick
		select {
		case c.wake <- push{frame: frame, chunks: c.outbox}:
			c.outbox = nil
			s.stats.Pushes++
		default:
			// Still busy with its previous push: it is due again next
			// interval, and its chunks wait in the outbox until then.
			s.stats.WakesSkipped++
		}
	}
}

// push is one wake-up of a session's push goroutine: the shared state
// frame to write, then the chunks to stream after it.
type push struct {
	frame  []byte
	chunks []delivery
}

// delivery is one chunk the send queue delivered to a session's player:
// its position, and the server whose world holds it.
type delivery struct {
	from *mve.Server
	pos  world.ChunkPos
}

// session is one connected client.
type session struct {
	server  *Server
	conn    net.Conn
	player  *mve.Player
	actions chan mve.Action
	wake    chan push // 1-buffered: at most one push waits behind the one being written

	// Guarded by the game-loop lock. actBuf is the batch Actions hands the
	// loop, reused every tick (the loop consumes it before the next call);
	// acted says a tick consumed actions since the last push; outbox holds
	// the chunks delivered since the last push, in delivery order.
	actBuf       []mve.Action
	acted        bool
	lastPushTick uint64
	outbox       []delivery

	// chunkBuf holds one chunk's encoding and frame its framed message;
	// both are reused, so streaming allocates nothing once they have
	// warmed, and neither outgrows one chunk. Owned by the push goroutine.
	chunkBuf []byte
	frame    []byte

	writeMu sync.Mutex // serialises the push goroutine and pong replies
}

// newSession returns conn's session, not yet joined to the game.
func (s *Server) newSession(conn net.Conn) *session {
	return &session{
		server: s,
		conn:   conn,
		// Client input is queued between ticks; 256 actions is several
		// seconds of a fast client, and overflow is dropped and counted.
		actions: make(chan mve.Action, 256),
		wake:    make(chan push, 1),
		acted:   true, // joining counts: the next commit sends the first update
	}
}

// Actions implements mve.Behavior: the game loop drains the queued network
// actions each tick.
func (c *session) Actions(_ *rand.Rand, _ *mve.Player, _ *mve.Server) []mve.Action {
	c.actBuf = c.actBuf[:0]
	for {
		select {
		case a := <-c.actions:
			c.actBuf = append(c.actBuf, a)
			c.acted = true
		default:
			return c.actBuf
		}
	}
}

// ReceiveChunk implements mve.ChunkReceiver: the chunk waits in the
// outbox for the session's next push.
func (c *session) ReceiveChunk(from *mve.Server, cp world.ChunkPos) {
	c.outbox = append(c.outbox, delivery{from: from, pos: cp})
}

var (
	_ mve.Behavior      = (*session)(nil)
	_ mve.ChunkReceiver = (*session)(nil)
)

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := netproto.NewReader(conn)
	// The deadline bounds the wait for MsgJoin only: nothing is written
	// before the join, it is cleared right after, and from then on each
	// write sets its own while reads may wait for ever.
	conn.SetDeadline(time.Now().Add(s.ioTimeout))
	first, err := r.Next()
	if err != nil || first.Type != netproto.MsgJoin {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.count(func(st *Stats) { st.JoinTimeouts++ })
		}
		return
	}
	conn.SetDeadline(time.Time{})
	sess := s.newSession(conn)
	sess.player = s.inst.ConnectBehavior(first.Name, sess)
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.cfg.Logf("rtserve: %s joined (player %d)", first.Name, sess.player.ID)
	defer func() {
		s.inst.Disconnect(sess.player)
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.cfg.Logf("rtserve: %s left", first.Name)
	}()

	if sess.write(netproto.Encode(netproto.Message{
		Type: netproto.MsgWelcome, PlayerID: int64(sess.player.ID),
	})) != nil {
		return
	}

	// The push goroutine lives inside this call: closing the connection
	// fails any write it is blocked in, done ends its wait for a wake-up.
	done, pushed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pushed)
		sess.pushLoop(done)
	}()
	defer func() {
		conn.Close()
		close(done)
		<-pushed
	}()

	for {
		m, err := r.Next()
		if err != nil {
			return
		}
		if !sess.handle(m) {
			return
		}
	}
}

// write sends already-framed bytes under the write deadline, serialised
// against the other writer. Any failure closes the connection, which also
// releases the session's reader; a deadline failure is a stalled peer.
func (c *session) write(frames []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.server.ioTimeout))
	_, err := c.conn.Write(frames)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.server.count(func(st *Stats) { st.SessionsStalled++ })
		}
		c.conn.Close()
	}
	return err
}

// handle enqueues one client message as a game action; it reports false to
// end the session.
func (c *session) handle(m netproto.Message) bool {
	var a mve.Action
	switch m.Type {
	case netproto.MsgMove:
		a = mve.MoveTo(m.DestX, m.DestZ, m.Speed)
	case netproto.MsgPlaceBlock:
		a = mve.Action{Kind: mve.ActionPlaceBlock, Pos: m.Pos, Block: m.Block}
	case netproto.MsgBreakBlock:
		a = mve.Action{Kind: mve.ActionBreakBlock, Pos: m.Pos}
	case netproto.MsgChat:
		a = mve.Action{Kind: mve.ActionChat}
	case netproto.MsgSetInventory:
		a = mve.Action{Kind: mve.ActionSetInventory, Item: m.Item}
	case netproto.MsgPing:
		return c.write(netproto.Encode(netproto.Message{Type: netproto.MsgPong, Nonce: m.Nonce})) == nil
	default:
		return true // ignore unknown client messages
	}
	select {
	case c.actions <- a:
	default: // drop on overload; movement is idempotent, ops get resent
		c.server.count(func(st *Stats) { st.ActionsDropped++ })
	}
	return true
}

// pushLoop writes each push the commit hook wakes it with: the shared
// state frame as is — no encode, no game-loop lock — then the chunks the
// push carries.
func (c *session) pushLoop(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case p := <-c.wake:
			if c.write(p.frame) != nil || c.sendChunks(p.chunks) != nil {
				return
			}
		}
	}
}

// sendChunks streams the chunks a push carries, one at a time: each is
// encoded under the game-loop lock and written after releasing it, so a
// backlog costs the session its positions, never their encodings. A chunk
// still sealed since it was loaded is its bytes, copied without decoding
// it. A chunk its server has unloaded since the delivery is skipped.
func (c *session) sendChunks(chunks []delivery) error {
	for _, d := range chunks {
		c.frame = c.frame[:0]
		c.server.inst.Locked(func() {
			if ch := d.from.World().Chunk(d.pos); ch != nil {
				c.chunkBuf = ch.EncodeAppend(c.chunkBuf[:0])
				c.frame = netproto.AppendEncode(c.frame, netproto.Message{
					Type: netproto.MsgChunkData, ChunkData: c.chunkBuf,
				})
			}
		})
		if len(c.frame) > 0 {
			if err := c.write(c.frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendAvatars coalesces the server's avatar state into buf: every
// local player, then every ghost avatar — sessions hosted by
// neighbouring shards, replicated here by the cluster's visibility bus —
// merged into the same batch under negated ids, so a client near a
// region border renders one continuous world. Local player ids are
// positive; a negative id marks the avatar read-only. The fast path is
// allocation-free once buf has warmed to the avatar population (see
// BenchmarkAppendAvatars). Must run under the game-loop lock.
func appendAvatars(buf []netproto.AvatarState, srv *mve.Server) []netproto.AvatarState {
	srv.EachPlayer(func(p *mve.Player) {
		buf = append(buf, netproto.AvatarState{ID: int64(p.ID), X: p.X, Z: p.Z})
	})
	srv.EachGhost(func(g *mve.GhostAvatar) {
		buf = append(buf, netproto.AvatarState{ID: -g.ID, X: g.X, Z: g.Z})
	})
	return buf
}
