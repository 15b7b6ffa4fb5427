// Session management: connecting, disconnecting, and routing player
// actions. The game-loop world simulation lives in server.go; this file is
// the narrow surface a cluster shard needs — Connect/Disconnect for local
// sessions, and AdmitPlayer/EvictPlayer, which transfer a session between
// shards as a PlayerSnapshot without touching the persistence path.

package mve

import (
	"math"
	"slices"
	"time"

	"servo/internal/sc"
	"servo/internal/world"
)

// ConnectAt adds a player standing at (x, z) with the given behavior
// (nil for an idle player) and returns the session (shard-aware fleet
// placement drops players into their shard's home band). Persisted player
// data, when a store is configured, still overrides the position once it
// arrives.
func (s *Server) ConnectAt(name string, b Behavior, x, z float64) *Player {
	s.nextPlayer++
	p := &Player{
		ID:       s.nextPlayer,
		Name:     name,
		X:        x,
		Z:        z,
		behavior: b,
	}
	p.receiver, _ = b.(ChunkReceiver)
	p.destX, p.destZ = p.X, p.Z
	s.players[p.ID] = p
	s.playerOrder = append(s.playerOrder, p)
	s.loadPlayerData(p)
	return p
}

// Disconnect removes a player session, persisting its player data when a
// store is configured. It reports whether the session existed (false for
// a repeated disconnect or a stale id).
func (s *Server) Disconnect(id PlayerID) bool {
	p, ok := s.players[id]
	if !ok {
		return false
	}
	s.savePlayerData(p)
	s.removeSession(p)
	return true
}

// removeSession drops the session from the routing tables. slices.Delete
// clears the vacated tail slot, so the order's backing array does not keep
// the departed session reachable.
func (s *Server) removeSession(p *Player) {
	delete(s.players, p.ID)
	if i := slices.Index(s.playerOrder, p); i >= 0 {
		s.playerOrder = slices.Delete(s.playerOrder, i, i+1)
	}
}

// Players returns the connected players in join order.
func (s *Server) Players() []*Player {
	return append(make([]*Player, 0, len(s.playerOrder)), s.playerOrder...)
}

// EachPlayer visits every connected player in join order without
// allocating (the zero-alloc counterpart of Players, for per-tick hot
// paths like the network push loop). fn must not connect or disconnect
// sessions.
func (s *Server) EachPlayer(fn func(*Player)) {
	for _, p := range s.playerOrder {
		fn(p)
	}
}

// PlayerCount returns the number of connected players.
func (s *Server) PlayerCount() int { return len(s.players) }

// PlayerSnapshot is the transferable state of a session: the unit of
// cross-shard handoff. Behavior rides along in memory only (behaviors are
// code, not data); everything else round-trips through EncodeSnapshot.
type PlayerSnapshot struct {
	Name         string
	X, Z         float64
	DestX, DestZ float64
	Speed        float64
	Inventory    uint8
	// ChunksReceived carries the client's delivery counter across shards.
	ChunksReceived int
	Behavior       Behavior
}

// SnapshotPlayer returns a session's transferable state without removing
// it: the periodic-checkpoint path, which persists never-evicted players
// so a shard failover restores their inventory rather than only their
// scan-tracked position. ok is false if the session does not exist.
func (s *Server) SnapshotPlayer(id PlayerID) (PlayerSnapshot, bool) {
	p, ok := s.players[id]
	if !ok {
		return PlayerSnapshot{}, false
	}
	return PlayerSnapshot{
		Name:           p.Name,
		X:              p.X,
		Z:              p.Z,
		DestX:          p.destX,
		DestZ:          p.destZ,
		Speed:          p.speed,
		Inventory:      p.Inventory,
		ChunksReceived: p.ChunksReceived,
		Behavior:       p.behavior,
	}, true
}

// EvictPlayer removes a session without persisting it and returns its
// snapshot: the source half of a cross-shard handoff, where the cluster —
// not the shard — owns the persistence round-trip. ok is false if the
// session does not exist.
func (s *Server) EvictPlayer(id PlayerID) (PlayerSnapshot, bool) {
	snap, ok := s.SnapshotPlayer(id)
	if !ok {
		return PlayerSnapshot{}, false
	}
	s.removeSession(s.players[id])
	return snap, true
}

// AdmitPlayer installs a session from a snapshot at its recorded position:
// the target half of a cross-shard handoff. Unlike Connect it does not
// consult the player store (the cluster already moved the state). The
// client's chunk knowledge is empty on the new shard, so terrain resends
// — exactly the reconnect cost a real cross-server transfer pays.
func (s *Server) AdmitPlayer(snap PlayerSnapshot) *Player {
	s.nextPlayer++
	p := &Player{
		ID:             s.nextPlayer,
		Name:           snap.Name,
		X:              snap.X,
		Z:              snap.Z,
		destX:          snap.DestX,
		destZ:          snap.DestZ,
		speed:          snap.Speed,
		Inventory:      snap.Inventory,
		ChunksReceived: snap.ChunksReceived,
		behavior:       snap.Behavior,
	}
	p.receiver, _ = snap.Behavior.(ChunkReceiver)
	s.players[p.ID] = p
	s.playerOrder = append(s.playerOrder, p)
	return p
}

// inReach reports whether the server can carry out a movement to (x, z)
// at speed: a finite speed, and a position inside the int32 block range
// the wire formats name positions in. Past it an avatar's chunks would
// alias: the chunk codec and the generation request store int32 chunk
// coordinates, so a chunk generated at X = 2^36 comes back under a
// position near the origin and could be applied and stored over real
// terrain. NaN fails every comparison. Client moves, persisted player
// records and handoff snapshots all pass it, so no stored state can place
// an avatar where no move could take it.
func inReach(x, z, speed float64) bool {
	return !math.IsInf(speed, 0) && !math.IsNaN(speed) &&
		x >= math.MinInt32 && x <= math.MaxInt32 &&
		z >= math.MinInt32 && z <= math.MaxInt32
}

// processAction applies one player action and returns its work cost.
func (s *Server) processAction(p *Player, a Action) time.Duration {
	s.ActionCount.Inc()
	s.noteAction(p.Pos())
	cost := s.cost.PerAction
	switch a.Kind {
	case ActionMove:
		if !inReach(a.DestX, a.DestZ, a.Speed) {
			break
		}
		p.destX, p.destZ = a.DestX, a.DestZ
		p.speed = a.Speed
	case ActionPlaceBlock, ActionBreakBlock:
		b := a.Block
		if a.Kind == ActionBreakBlock {
			b = world.Block{}
		}
		if owner, i := s.owner(a.Pos); owner != nil {
			// The block belongs to a simulated construct: this is a
			// player modification that invalidates speculation.
			cx, cz := a.Pos.X-owner.anchor.X, a.Pos.Z-owner.anchor.Z
			s.scs.Modify(owner.id, func(c *sc.Construct) {
				cell := c.At(cx, cz)
				if a.Kind == ActionBreakBlock {
					c.Set(cx, cz, sc.Cell{})
				} else {
					cell.On = !cell.On
					c.Set(cx, cz, cell)
				}
			})
			if a.Kind == ActionBreakBlock {
				owner.cede(i)
			}
		}
		s.world.SetBlockAt(a.Pos, b)
	case ActionChat:
		// Fan out to every connected player — cluster-wide through the
		// relay when one is installed (cross-shard chat), else locally.
		n := len(s.players)
		if s.chatRelay != nil {
			n = s.chatRelay(p)
		} else {
			s.ChatsDelivered.Add(int64(n))
		}
		cost += time.Duration(n) * (s.cost.PerAction / 8)
	case ActionSetInventory:
		p.Inventory = a.Item
	case ActionIdle:
		// Explicit no-op.
	}
	return cost
}
