package rtserve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"servo/internal/netproto"
	"servo/internal/world"
)

// Client is a minimal protocol client for the tests: it joins, sends moves
// and block placements, and counts what the server pushes back.
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
