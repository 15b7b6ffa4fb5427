package mve

import (
	"math/rand"
	"testing"
	"time"

	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// TestEvictAdmitRoundTrip moves a session between two servers and checks
// that avatar state survives the transfer.
func TestEvictAdmitRoundTrip(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewServer(loop, Config{WorldType: "flat", ViewDistance: 32})
	b := NewServer(loop, Config{WorldType: "flat", ViewDistance: 32})

	p := a.ConnectAt("walker", nil, 100, -20)
	p.Inventory = 7
	p.destX, p.destZ, p.speed = 300, -20, 4
	p.ChunksReceived = 42

	snap, ok := a.EvictPlayer(p.ID)
	if !ok {
		t.Fatal("evict failed")
	}
	if a.PlayerCount() != 0 {
		t.Fatalf("source still has %d players", a.PlayerCount())
	}
	if _, ok := a.EvictPlayer(p.ID); ok {
		t.Fatal("double evict must fail")
	}

	q := b.AdmitPlayer(snap)
	if q.Name != "walker" || q.X != 100 || q.Z != -20 || q.Inventory != 7 {
		t.Fatalf("admitted state wrong: %+v", q)
	}
	if q.destX != 300 || q.speed != 4 {
		t.Fatalf("movement state lost: dest=(%g,%g) speed=%g", q.destX, q.destZ, q.speed)
	}
	if q.ChunksReceived != 42 {
		t.Fatalf("ChunksReceived = %d, want 42", q.ChunksReceived)
	}
	if b.PlayerCount() != 1 {
		t.Fatalf("target has %d players", b.PlayerCount())
	}
}

// chunkLog is a ChunkReceiver behavior recording every delivery.
type chunkLog struct {
	from []*Server
	got  []world.ChunkPos
}

func (l *chunkLog) Actions(*rand.Rand, *Player, *Server) []Action { return nil }
func (l *chunkLog) ReceiveChunk(from *Server, cp world.ChunkPos) {
	l.from = append(l.from, from)
	l.got = append(l.got, cp)
}

// TestChunkReceiverFollowsThePlayer: a behavior that is a ChunkReceiver is
// handed every chunk its player is counted as sent, by the server sending
// it — before a handoff and, riding on the snapshot, after it.
func TestChunkReceiverFollowsThePlayer(t *testing.T) {
	loop := sim.NewLoop(1)
	a := NewServer(loop, Config{WorldType: "flat", ViewDistance: 32})
	b := NewServer(loop, Config{WorldType: "flat", ViewDistance: 32})
	log := &chunkLog{}
	p := a.ConnectAt("client", log, 0, 0)
	a.Start()
	b.Start()
	loop.RunUntil(time.Second)
	if len(log.got) == 0 || len(log.got) != p.ChunksReceived {
		t.Fatalf("received %d chunks, ChunksReceived = %d", len(log.got), p.ChunksReceived)
	}
	before := len(log.got)
	snap, _ := a.EvictPlayer(p.ID)
	q := b.AdmitPlayer(snap)
	loop.RunUntil(2 * time.Second)
	if len(log.got) != q.ChunksReceived || len(log.got) == before {
		t.Fatalf("after the handoff: received %d chunks, ChunksReceived = %d (%d before)", len(log.got), q.ChunksReceived, before)
	}
	for i, from := range log.from {
		want := b
		if i < before {
			want = a
		}
		if from != want || from.World().Chunk(log.got[i]) == nil {
			t.Fatalf("delivery %d (%v) names the wrong server or an unloaded chunk", i, log.got[i])
		}
	}
}

// TestSnapshotCodecRoundTrip checks the wire format's round trip and its
// prefix compatibility with the plain player record.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := PlayerSnapshot{
		X: 12.5, Z: -3.25, DestX: 99, DestZ: -44, Speed: 3.5,
		Inventory: 9, ChunksReceived: 17,
	}
	data := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Prefix compatibility: the snapshot decodes as a plain player record.
	rec, err := decodePlayer(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.X != snap.X || rec.Z != snap.Z || rec.Inventory != snap.Inventory {
		t.Fatalf("player-record prefix mismatch: %+v", rec)
	}
	// And a bare record decodes as a snapshot.
	bare, err := DecodeSnapshot(data[:17])
	if err != nil {
		t.Fatal(err)
	}
	if bare.X != snap.X || bare.DestX != snap.X {
		t.Fatalf("bare record snapshot wrong: %+v", bare)
	}
}

// TestRegionGatedPersistence checks that a sharded server persists only
// chunks its region owns, while still generating ghost chunks on demand.
func TestRegionGatedPersistence(t *testing.T) {
	loop := sim.NewLoop(3)
	topo := world.BandTopology{BandChunks: 4}
	region := world.NewOwnershipTable(2, topo).View(0)
	store := &recordingStore{}
	s := NewServer(loop, Config{
		WorldType:    "flat",
		ViewDistance: 64,
		Region:       region,
		Store:        store,
	})
	s.ConnectAt("p", nil, 0, 0)
	s.Start()
	loop.RunUntil(10 * 1e9) // 10s: boot requests resolve, terrain persists
	for _, cp := range store.stored {
		if !region.Contains(cp) {
			t.Errorf("persisted unowned chunk %v (owner shard %d)", cp, world.DefaultOwner(topo, 2, topo.TileOf(cp)))
		}
	}
	if len(store.stored) == 0 {
		t.Fatal("no chunks persisted at all")
	}
}

// TestAppliedChunkKeepsItsReply: a generated chunk arrives sealed with the
// FaaS reply it was loaded from, and keeps it once applied, whether the
// server persists it (the store shares that slice) or another shard owns
// it. For a sealed chunk those bytes are the chunk: dropping them would
// force a decode to keep its blocks.
func TestAppliedChunkKeepsItsReply(t *testing.T) {
	loop := sim.NewLoop(3)
	topo := world.BandTopology{BandChunks: 4}
	region := world.NewOwnershipTable(2, topo).View(0)
	gen := &replyTerrain{replies: map[world.ChunkPos][]byte{}}
	s := NewServer(loop, Config{
		WorldType:    "flat",
		ViewDistance: 64,
		Region:       region,
		Store:        &recordingStore{},
		Terrain:      gen,
	})
	s.ConnectAt("p", nil, 0, 0)
	s.Start()
	loop.RunUntil(10 * 1e9)
	owned, unowned := 0, 0
	for pos, reply := range gen.replies {
		c := s.world.Chunk(pos)
		if c == nil {
			continue
		}
		if &c.Encoded()[0] != &reply[0] {
			t.Errorf("chunk %v (owned %v) dropped the reply it arrived in", pos, region.Contains(pos))
		}
		if region.Contains(pos) {
			owned++
		} else {
			unowned++
		}
	}
	if owned == 0 || unowned == 0 {
		t.Fatalf("applied %d owned and %d unowned generated chunks; want both", owned, unowned)
	}
}

// replyTerrain delivers flat chunks the way the serverless backend does:
// each is sealed with its encoding, the reply.
type replyTerrain struct {
	replies map[world.ChunkPos][]byte
	done    []*world.Chunk
}

func (r *replyTerrain) Request(pos world.ChunkPos) {
	r.replies[pos] = terrain.Flat{}.Generate(pos).Encode()
	c := new(world.Chunk)
	if err := c.LoadEncoded(r.replies[pos]); err != nil {
		panic(err)
	}
	r.done = append(r.done, c)
}

func (r *replyTerrain) DrainAppend(dst []*world.Chunk) []*world.Chunk {
	dst = append(dst, r.done...)
	r.done = r.done[:0]
	return dst
}

func (r *replyTerrain) Load() (busyWorkers, queued int) { return 0, 0 }

// storeRest is the part of the ChunkStore contract a chunk-only test
// double has no use for: it observes nothing and holds no player records.
type storeRest struct{}

func (storeRest) ObserveAvatars([]world.BlockPos, int)       {}
func (storeRest) SavePlayer(string, []byte)                  {}
func (storeRest) LoadPlayer(_ string, cb func([]byte, bool)) { cb(nil, false) }

// loadEach answers a batched load one load at a time, in order.
func loadEach(load func(world.ChunkPos, func(*world.Chunk, bool)), pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	for _, cp := range pos {
		load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// recordingStore is a ChunkStore that records Store and StoreThen calls
// in order and always misses on Load.
type recordingStore struct {
	storeRest
	stored []world.ChunkPos
}

var _ ChunkStore = (*recordingStore)(nil)

func (r *recordingStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) { cb(nil, false) }
func (r *recordingStore) LoadMany(pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	loadEach(r.Load, pos, cb)
}
func (r *recordingStore) Store(c *world.Chunk) { r.stored = append(r.stored, c.Pos) }
func (r *recordingStore) StoreThen(c *world.Chunk, done func()) {
	r.Store(c)
	done()
}
