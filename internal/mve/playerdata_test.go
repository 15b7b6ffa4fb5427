package mve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"servo/internal/sim"
	"servo/internal/world"
)

// memPlayerStore is an in-memory PlayerStore (and no-op ChunkStore) with a
// configurable load delay.
type memPlayerStore struct {
	clock   sim.Clock
	delay   time.Duration
	records map[string][]byte
	saves   int
}

func newMemPlayerStore(clock sim.Clock, delay time.Duration) *memPlayerStore {
	return &memPlayerStore{clock: clock, delay: delay, records: make(map[string][]byte)}
}

func (m *memPlayerStore) SavePlayer(name string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.records[name] = cp
	m.saves++
}

func (m *memPlayerStore) LoadPlayer(name string, cb func([]byte, bool)) {
	data, ok := m.records[name]
	m.clock.After(m.delay, func() { cb(data, ok) })
}

func (m *memPlayerStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	m.clock.After(0, func() { cb(nil, false) })
}

func (m *memPlayerStore) Store(*world.Chunk) {}

var (
	_ PlayerStore = (*memPlayerStore)(nil)
	_ ChunkStore  = (*memPlayerStore)(nil)
)

func TestPlayerRecordRoundTripQuick(t *testing.T) {
	f := func(xBits, zBits uint64, inv uint8) bool {
		p := &Player{X: float64(xBits%100000) / 7, Z: -float64(zBits%100000) / 3, Inventory: inv}
		rec, err := decodePlayer(encodePlayer(p))
		return err == nil && rec.X == p.X && rec.Z == p.Z && rec.Inventory == p.Inventory
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePlayerRejectsShortRecord(t *testing.T) {
	if _, err := decodePlayer([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}

func TestPlayerPersistsAcrossSessions(t *testing.T) {
	loop := sim.NewLoop(1)
	store := newMemPlayerStore(loop, 5*time.Millisecond)
	s := NewServer(loop, Config{WorldType: "flat", Store: store})
	s.Start()

	// First session: move somewhere, set inventory, disconnect.
	p := s.ConnectAt("veteran", nil, 0, 0)
	runFor(loop, time.Second)
	p.X, p.Z = 42, -17
	p.destX, p.destZ = 42, -17
	p.Inventory = 9
	s.Disconnect(p.ID)
	if store.saves != 1 {
		t.Fatalf("saves = %d, want 1", store.saves)
	}

	// Second session: state must be restored after the load completes.
	p2 := s.ConnectAt("veteran", nil, 0, 0)
	if p2.X != 0 {
		t.Fatal("player must spawn at origin until the load arrives")
	}
	runFor(loop, time.Second)
	if p2.X != 42 || p2.Z != -17 || p2.Inventory != 9 {
		t.Fatalf("restored state = (%v, %v, inv %d), want (42, -17, 9)", p2.X, p2.Z, p2.Inventory)
	}
}

func TestFirstTimePlayerStartsFresh(t *testing.T) {
	loop := sim.NewLoop(2)
	store := newMemPlayerStore(loop, time.Millisecond)
	s := NewServer(loop, Config{WorldType: "flat", Store: store})
	s.Start()
	p := s.ConnectAt("rookie", nil, 0, 0)
	runFor(loop, time.Second)
	if p.X != 0 || p.Z != 0 || p.Inventory != 0 {
		t.Fatal("first-time player must start at spawn defaults")
	}
}

func TestStaleLoadDoesNotTeleportMovingPlayer(t *testing.T) {
	loop := sim.NewLoop(3)
	store := newMemPlayerStore(loop, 2*time.Second) // very slow storage
	store.records["runner"] = encodePlayer(&Player{X: 999, Z: 999})
	s := NewServer(loop, Config{WorldType: "flat", Store: store})
	s.Start()
	p := s.ConnectAt("runner", nil, 0, 0)
	// The player starts moving before the (slow) load lands.
	p.destX, p.destZ, p.speed = 50, 0, 4
	runFor(loop, 5*time.Second)
	if p.X > 500 {
		t.Fatalf("stale load teleported an active player to X=%v", p.X)
	}
}

func TestNoStoreNoPersistence(t *testing.T) {
	loop, s := newFlatServer(4)
	s.Start()
	p := s.ConnectAt("ghost", nil, 0, 0)
	runFor(loop, 100*time.Millisecond)
	s.Disconnect(p.ID) // must not panic without a store
}

// wireSnapshot and snapshotWire pin the handoff snapshot's bytes, which
// are persisted under the player's key and whose length the store's
// transfer time and billing read: the 17-byte player record, DestX,
// DestZ, Speed, ChunksReceived, and the always-zero trailing count.
var wireSnapshot = PlayerSnapshot{
	X: 12.5, Z: -3.25, DestX: 99, DestZ: -44, Speed: 3.5,
	Inventory: 9, ChunksReceived: 17,
}

const snapshotWire = "0000000000002940" + "0000000000000ac0" + "09" +
	"0000000000c05840" + "00000000000046c0" + "0000000000000c40" +
	"11000000" + "0000"

func TestSnapshotWireFormat(t *testing.T) {
	data := EncodeSnapshot(wireSnapshot)
	if got := hex.EncodeToString(data); got != snapshotWire {
		t.Fatalf("EncodeSnapshot = %s (%d bytes), want %s", got, len(data), snapshotWire)
	}
	bare, err := DecodeSnapshot(data[:17])
	if err != nil {
		t.Fatalf("bare 17-byte record refused: %v", err)
	}
	want := PlayerSnapshot{X: 12.5, Z: -3.25, DestX: 12.5, DestZ: -3.25, Inventory: 9}
	if bare != want {
		t.Fatalf("bare record decoded as %+v, want %+v", bare, want)
	}
	counted := bytes.Clone(data)
	counted[len(counted)-2] = 1
	if _, err := DecodeSnapshot(counted); !errors.Is(err, errBadSnapshot) {
		t.Fatalf("non-zero construct count: err %v, want errBadSnapshot", err)
	}
}

// TestDecodersRefuseUnreachableState: a stored player record or handoff
// snapshot holding a position, destination or speed that no client move
// could set is refused, and a player whose stored record is refused starts
// at spawn, as a first-time player does.
func TestDecodersRefuseUnreachableState(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*PlayerSnapshot)
		want error
	}{
		{"X = +Inf", func(s *PlayerSnapshot) { s.X = math.Inf(1) }, errBadPlayerRecord},
		{"Z = 2^40", func(s *PlayerSnapshot) { s.Z = 1 << 40 }, errBadPlayerRecord},
		{"DestX = NaN", func(s *PlayerSnapshot) { s.DestX = math.NaN() }, errBadSnapshot},
		{"Speed = +Inf", func(s *PlayerSnapshot) { s.Speed = math.Inf(1) }, errBadSnapshot},
	} {
		snap := wireSnapshot
		tc.edit(&snap)
		data := EncodeSnapshot(snap)
		if _, err := DecodeSnapshot(data); !errors.Is(err, tc.want) {
			t.Errorf("%s: snapshot decoded with err %v, want %v", tc.name, err, tc.want)
		}
		if tc.want != errBadPlayerRecord {
			continue
		}
		if _, err := decodePlayer(data[:17]); !errors.Is(err, errBadPlayerRecord) {
			t.Errorf("%s: player record decoded with err %v, want %v", tc.name, err, errBadPlayerRecord)
		}
		loop := sim.NewLoop(4)
		store := newMemPlayerStore(loop, time.Millisecond)
		store.records["mallory"] = data[:17]
		s := NewServer(loop, Config{WorldType: "flat", Store: store})
		s.Start()
		p := s.ConnectAt("mallory", nil, 0, 0)
		runFor(loop, time.Second)
		if p.X != 0 || p.Z != 0 || p.Inventory != 0 {
			t.Errorf("%s: a refused record placed the player at (%v, %v, inv %d), want spawn", tc.name, p.X, p.Z, p.Inventory)
		}
	}
}

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary records. It must not
// panic; whatever decodes is a bare 17-byte record or a full snapshot
// whose position and movement are in reach (see inReach), and re-encodes to the input's first snapshotLen bytes (float bits
// included; trailing bytes are ignored). The seeds are the files under
// testdata/fuzz/FuzzDecodeSnapshot: a valid snapshot, a bare record, a
// truncation at every field, a non-zero count, and trailing bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !inReach(s.X, s.Z, 0) || !inReach(s.DestX, s.DestZ, s.Speed) {
			t.Fatalf("decoded %+v, which no move could reach", s)
		}
		n := min(len(data), snapshotLen)
		if n != 17 && n != snapshotLen {
			t.Fatalf("a %d-byte input decoded", len(data))
		}
		if got := EncodeSnapshot(s)[:n]; !bytes.Equal(got, data[:n]) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", s, got, data[:n])
		}
	})
}
