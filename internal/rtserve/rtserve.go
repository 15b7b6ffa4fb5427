// Package rtserve serves a real-time MVE instance to network clients over
// the internal/netproto protocol. cmd/servo-server is a thin wrapper around
// this package; tests drive it over loopback TCP.
//
// Each client session owns a player whose actions are fed from the network
// (a queue drained by the game loop each tick) and receives 10 Hz state
// updates plus view-local chunk data. Servo's backend is invisible at this
// layer — the protocol is identical for baseline and serverless servers
// (paper requirement R4).
package rtserve

import (
	"fmt"
	"math/rand"
	"net"
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
	// PushInterval is the state-update period (default 100 ms).
	PushInterval time.Duration
	// ChunksPerPush caps chunk payloads per update cycle (default 4).
	ChunksPerPush int
	// Logf receives connection events; nil silences logging.
	Logf func(format string, args ...any)
}

// Server accepts protocol connections for one instance.
type Server struct {
	inst Instance
	cfg  Config

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a network server for inst.
func NewServer(inst Instance, cfg Config) *Server {
	if cfg.PushInterval <= 0 {
		cfg.PushInterval = 100 * time.Millisecond
	}
	if cfg.ChunksPerPush <= 0 {
		cfg.ChunksPerPush = 4
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{inst: inst, cfg: cfg, sessions: make(map[*session]struct{})}
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

// Close terminates all sessions and waits for their goroutines.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// SessionCount returns the number of connected clients.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// session is one connected client.
type session struct {
	server  *Server
	conn    net.Conn
	player  *mve.Player
	actions chan mve.Action
	sent    map[world.ChunkPos]bool

	// avatarBuf is the session's reusable avatar batch: each push,
	// snapshot coalesces every local player and ghost into this one
	// buffer and flushes it as a single state update — one message per
	// tick instead of per-entity sends, and no steady-state allocation
	// (the buffer is re-sliced to zero length and refilled). It is owned
	// by the push loop: the previous update has been written before the
	// next snapshot overwrites it.
	avatarBuf []netproto.AvatarState

	// chunkBuf is the session's reusable chunk-encode scratch: each push,
	// snapshot appends every outgoing chunk's encoding into this one
	// buffer (chunkOffs marks the boundaries) and the messages reference
	// sub-slices of it — no per-chunk encode allocation once the buffer
	// has warmed. Owned by the push loop, like avatarBuf: the previous
	// push's messages are written before the next snapshot overwrites it.
	chunkBuf  []byte
	chunkOffs []int

	writeMu sync.Mutex // serialises the push loop and pong replies
}

// Actions implements mve.Behavior: the game loop drains the queued network
// actions each tick.
func (c *session) Actions(_ *rand.Rand, _ *mve.Player, _ *mve.Server) []mve.Action {
	var out []mve.Action
	for {
		select {
		case a := <-c.actions:
			out = append(out, a)
		default:
			return out
		}
	}
}

var _ mve.Behavior = (*session)(nil)

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := netproto.NewReader(conn)
	first, err := r.Next()
	if err != nil || first.Type != netproto.MsgJoin {
		return
	}
	sess := &session{
		server:  s,
		conn:    conn,
		actions: make(chan mve.Action, 256),
		sent:    make(map[world.ChunkPos]bool),
	}
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

	if err := sess.write(netproto.Message{
		Type: netproto.MsgWelcome, PlayerID: int64(sess.player.ID),
	}); err != nil {
		return
	}

	done := make(chan struct{})
	defer close(done)
	go sess.pushLoop(done)

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

// write sends one message, serialised against the push loop.
func (c *session) write(m netproto.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return netproto.Write(c.conn, m)
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
		return c.write(netproto.Message{Type: netproto.MsgPong, Nonce: m.Nonce}) == nil
	default:
		return true // ignore unknown client messages
	}
	select {
	case c.actions <- a:
	default: // drop on overload; movement is idempotent, ops get resent
	}
	return true
}

// pushLoop streams state updates and nearby chunks at the push interval.
func (c *session) pushLoop(done <-chan struct{}) {
	t := time.NewTicker(c.server.cfg.PushInterval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		update, chunks := c.snapshot()
		if c.write(update) != nil {
			return
		}
		for _, m := range chunks {
			if c.write(m) != nil {
				return
			}
		}
	}
}

// snapshot builds the state update and pending chunk payloads under the
// game-loop lock.
func (c *session) snapshot() (update netproto.Message, chunks []netproto.Message) {
	srv := c.server.inst.Server()
	c.server.inst.Locked(func() {
		update = netproto.Message{Type: netproto.MsgStateUpdate, Tick: srv.Tick()}
		c.avatarBuf = appendAvatars(c.avatarBuf[:0], srv)
		update.Avatars = c.avatarBuf
		pos := c.player.Pos()
		// Encode every outgoing chunk into the shared scratch buffer and
		// record the boundaries; the messages are built afterwards because
		// appends may move the buffer while it grows.
		c.chunkBuf = c.chunkBuf[:0]
		c.chunkOffs = append(c.chunkOffs[:0], 0)
		for _, cp := range world.ChunksWithin(pos, srv.Config().ViewDistance) {
			if len(c.chunkOffs)-1 >= c.server.cfg.ChunksPerPush {
				break
			}
			if c.sent[cp] {
				continue
			}
			ch := srv.World().Chunk(cp)
			if ch == nil {
				continue
			}
			c.sent[cp] = true
			c.chunkBuf = ch.EncodeAppend(c.chunkBuf)
			c.chunkOffs = append(c.chunkOffs, len(c.chunkBuf))
		}
		for i := 1; i < len(c.chunkOffs); i++ {
			chunks = append(chunks, netproto.Message{
				Type: netproto.MsgChunkData, ChunkData: c.chunkBuf[c.chunkOffs[i-1]:c.chunkOffs[i]],
			})
		}
	})
	return update, chunks
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

// --- Client ------------------------------------------------------------------

// Client is a minimal protocol client for bots and tests.
type Client struct {
	conn net.Conn
	r    *netproto.Reader

	// Counters updated by the read loop.
	mu       sync.Mutex
	updates  int
	chunks   int
	players  map[int64][2]float64
	playerID int64
}

// Dial connects and joins with the given name, blocking until the welcome
// arrives.
func Dial(addr, name string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("rtserve: dial: %w", err)
	}
	c := &Client{conn: conn, r: netproto.NewReader(conn), players: make(map[int64][2]float64)}
	if err := netproto.Write(conn, netproto.Message{Type: netproto.MsgJoin, Name: name}); err != nil {
		conn.Close()
		return nil, err
	}
	m, err := c.r.Next()
	if err != nil || m.Type != netproto.MsgWelcome {
		conn.Close()
		return nil, fmt.Errorf("rtserve: no welcome (got %v, %v)", m.Type, err)
	}
	c.playerID = m.PlayerID
	go c.readLoop()
	return c, nil
}

// PlayerID returns the server-assigned player id.
func (c *Client) PlayerID() int64 { return c.playerID }

func (c *Client) readLoop() {
	for {
		m, err := c.r.Next()
		if err != nil {
			return
		}
		c.mu.Lock()
		switch m.Type {
		case netproto.MsgStateUpdate:
			c.updates++
			for _, a := range m.Avatars {
				c.players[a.ID] = [2]float64{a.X, a.Z}
			}
		case netproto.MsgChunkData:
			c.chunks++
		}
		c.mu.Unlock()
	}
}

// Move sends a movement command.
func (c *Client) Move(x, z, speed float64) error {
	return netproto.Write(c.conn, netproto.Message{Type: netproto.MsgMove, DestX: x, DestZ: z, Speed: speed})
}

// PlaceBlock sends a block placement.
func (c *Client) PlaceBlock(pos world.BlockPos, b world.Block) error {
	return netproto.Write(c.conn, netproto.Message{Type: netproto.MsgPlaceBlock, Pos: pos, Block: b})
}

// Stats returns the counts of received updates and chunks.
func (c *Client) Stats() (updates, chunks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates, c.chunks
}

// Position returns the last known position of a player id.
func (c *Client) Position(id int64) (x, z float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.players[id]
	return p[0], p[1], ok
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }
