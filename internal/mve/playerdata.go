package mve

import (
	"encoding/binary"
	"errors"
	"math"
)

// PlayerStore is the ChunkStore part that persists per-player data
// (position, inventory). The paper's storage design covers player-,
// meta-, and terrain-data (§III-E); player data is fetched "every time a
// player connects to a game instance" (§II-D, Fig. 3) and written back on
// disconnect.
type PlayerStore interface {
	// SavePlayer persists the encoded player record (asynchronously).
	SavePlayer(name string, data []byte)
	// LoadPlayer fetches the record; ok is false for first-time players.
	LoadPlayer(name string, cb func(data []byte, ok bool))
}

// playerRecord is the persisted subset of Player state.
type playerRecord struct {
	X, Z      float64
	Inventory uint8
}

// encodePlayer serialises a player's persistent state.
func encodePlayer(p *Player) []byte {
	out := make([]byte, 0, 17)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Z))
	return append(out, p.Inventory)
}

// errBadPlayerRecord reports a corrupt persisted player record.
var errBadPlayerRecord = errors.New("mve: bad player record")

// decodePlayer parses a persisted player record. A position out of reach
// (see inReach) is refused like a truncated record.
func decodePlayer(data []byte) (playerRecord, error) {
	if len(data) < 17 {
		return playerRecord{}, errBadPlayerRecord
	}
	rec := playerRecord{
		X:         math.Float64frombits(binary.LittleEndian.Uint64(data)),
		Z:         math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		Inventory: data[16],
	}
	if !inReach(rec.X, rec.Z, 0) {
		return playerRecord{}, errBadPlayerRecord
	}
	return rec, nil
}

// snapshotLen is the encoded size of a handoff snapshot: the 17-byte
// player record, destination, speed, delivery counter, and a trailing
// two-byte count that is always zero (it once framed travelling
// constructs; persisted records keep the length, which the store's
// transfer time and billing read).
const snapshotLen = 17 + 8 + 8 + 8 + 4 + 2

// EncodeSnapshot serialises a handoff snapshot. The first 17 bytes are a
// valid player record (see encodePlayer), so a snapshot persisted under
// the player's storage key doubles as the player's saved state: a crash
// between handoff save and restore loses nothing, and a later plain
// reconnect decodes the prefix.
func EncodeSnapshot(s PlayerSnapshot) []byte {
	out := make([]byte, 0, snapshotLen)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.X))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Z))
	out = append(out, s.Inventory)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.DestX))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.DestZ))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Speed))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.ChunksReceived))
	return binary.LittleEndian.AppendUint16(out, 0)
}

// errBadSnapshot reports a corrupt handoff snapshot.
var errBadSnapshot = errors.New("mve: bad handoff snapshot")

// DecodeSnapshot parses a handoff snapshot (Name and Behavior are carried
// out of band). A bare 17-byte player record decodes too, with zero
// movement state, so snapshots and plain records share a storage key. A
// non-zero trailing count and a movement out of reach (see inReach) are
// refused; bytes past snapshotLen are ignored.
func DecodeSnapshot(data []byte) (PlayerSnapshot, error) {
	rec, err := decodePlayer(data)
	if err != nil {
		return PlayerSnapshot{}, err
	}
	s := PlayerSnapshot{X: rec.X, Z: rec.Z, Inventory: rec.Inventory}
	s.DestX, s.DestZ = s.X, s.Z
	if len(data) == 17 {
		return s, nil
	}
	if len(data) < snapshotLen || binary.LittleEndian.Uint16(data[snapshotLen-2:]) != 0 {
		return PlayerSnapshot{}, errBadSnapshot
	}
	s.DestX = math.Float64frombits(binary.LittleEndian.Uint64(data[17:]))
	s.DestZ = math.Float64frombits(binary.LittleEndian.Uint64(data[25:]))
	s.Speed = math.Float64frombits(binary.LittleEndian.Uint64(data[33:]))
	s.ChunksReceived = int(binary.LittleEndian.Uint32(data[41:]))
	if !inReach(s.DestX, s.DestZ, s.Speed) {
		return PlayerSnapshot{}, errBadSnapshot
	}
	return s, nil
}

// loadPlayerData restores a reconnecting player's persisted state once it
// arrives from storage. Until then the player stands at spawn, exactly as
// on the real systems (the retrieval latency is the player-data curve of
// Fig. 3).
func (s *Server) loadPlayerData(p *Player) {
	if s.store == nil {
		return
	}
	id := p.ID
	s.store.LoadPlayer(p.Name, func(data []byte, found bool) {
		if !found {
			return
		}
		rec, err := decodePlayer(data)
		if err != nil {
			return
		}
		// Only apply if the session is still live and hasn't moved yet
		// (a stale load must not teleport an active player).
		cur, live := s.players[id]
		if !live || cur != p || p.Moving() {
			return
		}
		p.X, p.Z = rec.X, rec.Z
		p.destX, p.destZ = rec.X, rec.Z
		p.Inventory = rec.Inventory
	})
}

// savePlayerData persists a disconnecting player's state.
func (s *Server) savePlayerData(p *Player) {
	if s.store != nil {
		s.store.SavePlayer(p.Name, encodePlayer(p))
	}
}
