package mve

import (
	"math"
	"math/rand"

	"servo/internal/world"
)

// PlayerID identifies a connected player.
type PlayerID int

// Player is one connected player session and its avatar.
type Player struct {
	ID   PlayerID
	Name string

	// Avatar position (block coordinates; Y follows the terrain surface).
	X, Z float64

	// Movement state: the avatar advances toward (destX, destZ) at
	// speed blocks/second.
	destX, destZ float64
	speed        float64

	// Inventory is the held item slot (ActionSetInventory).
	Inventory uint8

	behavior Behavior
	// receiver is behavior as a ChunkReceiver, or nil.
	receiver ChunkReceiver

	// known has one bit per world slot (world.World.Slot): the chunk
	// loaded there was queued for this client. unloadFarChunks clears a
	// chunk's bit before its slot can be reused. sendQueue holds chunks
	// waiting to be serialised (drained a few per tick), with sendHead
	// indexing the next unsent entry — a head-index ring over one
	// reusable backing array (see drainSendQueues).
	known     []uint64
	sendQueue []world.ChunkPos
	sendHead  int

	// Demand cursor: the chunk rect covered by this player's last
	// terrain-demand walk. While it is valid (nothing in it was unloaded)
	// the scan looks up only the chunks a moved rect gains, none for an
	// unchanged one; fresh sessions and handoff arrivals start invalid
	// (see scanTerrainDemand).
	demandRect  world.ChunkRect
	demandValid bool

	// ChunksReceived counts chunk payloads delivered to this client.
	ChunksReceived int
}

// Behavior drives a player's actions each tick. Implementations live in
// internal/workload (behaviors A, Sx, Sinc, and R from the paper's Table I
// and Table II).
type Behavior interface {
	// Actions returns the player's commands for this tick. r is the
	// server's deterministic random source.
	Actions(r *rand.Rand, p *Player, s *Server) []Action
}

// ChunkReceiver is a Behavior's network client: the send queue hands it
// each chunk it counts in ChunksReceived, in order, with the server holding
// it. It rides on the behavior, so it follows the player across a handoff.
type ChunkReceiver interface {
	ReceiveChunk(from *Server, cp world.ChunkPos)
}

// knows reports whether the chunk in world slot i was queued for this
// client.
func (p *Player) knows(i int) bool {
	return i/64 < len(p.known) && p.known[i/64]&(1<<(i%64)) != 0
}

// queue marks the chunk at cp, in world slot i, known and queues it for
// sending.
func (p *Player) queue(cp world.ChunkPos, i int) {
	if w := i / 64; w >= len(p.known) {
		p.known = append(p.known, make([]uint64, w+1-len(p.known))...)
	}
	p.known[i/64] |= 1 << (i % 64)
	p.sendQueue = append(p.sendQueue, cp)
}

// forget clears world slot i's bit: the chunk there was unloaded.
func (p *Player) forget(i int) {
	if i/64 < len(p.known) {
		p.known[i/64] &^= 1 << (i % 64)
	}
}

// Pos returns the avatar's position as a block position (Y at surface).
func (p *Player) Pos() world.BlockPos {
	return world.BlockPos{X: int(p.X), Y: 0, Z: int(p.Z)}
}

// Moving reports whether the avatar has not yet reached its destination.
func (p *Player) Moving() bool {
	dx, dz := p.destX-p.X, p.destZ-p.Z
	return dx*dx+dz*dz > 1e-6 && p.speed > 0
}

// advance integrates movement for dt seconds.
func (p *Player) advance(dt float64) {
	if !p.Moving() {
		return
	}
	dx, dz := p.destX-p.X, p.destZ-p.Z
	dist := dx*dx + dz*dz
	step := p.speed * dt
	if step*step >= dist {
		p.X, p.Z = p.destX, p.destZ
		return
	}
	norm := step / math.Sqrt(dist)
	p.X += dx * norm
	p.Z += dz * norm
}
