// Model check of the incremental demand scan: random player moves,
// handoffs, joins, leaves and tick runs, applied to a server walking
// incrementally and to one re-walking every rect (fullDemandRescan), whose
// demand signatures must agree after every operation.

package mve

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"servo/internal/sim"
	"servo/internal/world"
)

// demandView is demandOps' view distance: a 7×7-chunk rect.
const demandView = 48

// demandJump is a shift wider than a demandView rect, in chunks.
const demandJump = 2*demandView/world.ChunkSizeX + 2

// placeAt puts p's avatar at rest on (x, z).
func placeAt(p *Player, x, z float64) {
	p.X, p.Z = x, z
	p.destX, p.destZ = x, z
}

// gainedLookups is how many World look-ups s's next demand scan must make:
// a cold cursor's whole rect, and the chunks a moved rect gained.
func gainedLookups(s *Server) int64 {
	var n int64
	for _, p := range s.playerOrder {
		rect := world.ChunkRectWithin(p.Pos(), s.cfg.ViewDistance)
		switch {
		case !p.demandValid:
			n += int64(rect.Count())
		case rect != p.demandRect:
			kept := world.ChunkRect{
				Min: world.ChunkPos{X: max(rect.Min.X, p.demandRect.Min.X), Z: max(rect.Min.Z, p.demandRect.Min.Z)},
				Max: world.ChunkPos{X: min(rect.Max.X, p.demandRect.Max.X), Z: min(rect.Max.Z, p.demandRect.Max.Z)},
			}
			n += int64(rect.Count() - kept.Count())
		}
	}
	return n
}

// demandOps interprets data as three-byte operations — kind (mod 6), a
// player selector and an argument — applied to an incremental server and a
// full-rescan twin:
//
//	0 step the player by (arg%5-2, arg/5%5-2) chunks
//	1 jump it demandJump chunks along ±X or ±Z (arg%4), past its rect
//	2 hand it off: evict, and admit it 500 blocks away
//	3 connect a new idle player near spawn
//	4 disconnect the player
//	5 run 1 + arg ticks (a far-chunk unload every 100)
//
// A step or jump with arg ≥ 128 also runs a demand scan at once, whose
// World look-ups on the incremental side must be exactly the chunks the
// rects gained (gainedLookups). After every operation the two servers'
// demandSignatures must be equal. It returns the incremental side's strip
// walks.
func demandOps(t *testing.T, data []byte) int64 {
	const maxOps = 32
	var loops [2]*sim.Loop
	var servers [2]*Server
	for i := range servers {
		loops[i] = sim.NewLoop(7)
		servers[i] = NewServer(loops[i], Config{WorldType: "flat", Seed: 7, ViewDistance: demandView})
		servers[i].fullDemandRescan = i == 1
		servers[i].ConnectAt("p0", nil, 0, 0)
		servers[i].ConnectAt("p1", nil, 40, -24)
		servers[i].Start()
	}
	for op := 0; op < maxOps && len(data) >= 3; op, data = op+1, data[3:] {
		kind, who, arg := data[0]%6, int(data[1]), data[2]
		scanNow := kind <= 1 && arg >= 128
		var made, gained int64
		for i, s := range servers {
			var p *Player
			if n := len(s.playerOrder); n > 0 {
				p = s.playerOrder[who%n]
			}
			switch {
			case kind == 0 && p != nil:
				dx, dz := int(arg%5)-2, int(arg/5%5)-2
				placeAt(p, p.X+float64(dx*world.ChunkSizeX), p.Z+float64(dz*world.ChunkSizeZ))
			case kind == 1 && p != nil:
				d := float64(demandJump * world.ChunkSizeX)
				if arg%2 == 1 {
					d = -d
				}
				if arg%4 < 2 {
					placeAt(p, p.X+d, p.Z)
				} else {
					placeAt(p, p.X, p.Z+d)
				}
			case kind == 2 && p != nil:
				snap, _ := s.EvictPlayer(p.ID)
				snap.X, snap.Z = snap.X+500, snap.Z-300
				snap.DestX, snap.DestZ = snap.X, snap.Z
				s.AdmitPlayer(snap)
			case kind == 3:
				s.ConnectAt(fmt.Sprintf("c%d", op), nil, float64(int(arg%8)*20-80), float64(int(arg/8%8)*20-80))
			case kind == 4 && p != nil:
				s.Disconnect(p.ID)
			case kind == 5:
				runFor(loops[i], time.Duration(1+int(arg))*TickInterval)
			}
			if scanNow {
				before := s.demandLookups
				if i == 0 {
					gained = gainedLookups(s)
				}
				s.ScanTerrainDemand()
				if i == 0 {
					made = s.demandLookups - before
				}
			}
		}
		if made != gained {
			t.Fatalf("op %d (kind %d): the scan made %d World look-ups, want %d (the chunks the rects gained)",
				op, kind, made, gained)
		}
		if a, b := demandSignature(servers[0]), demandSignature(servers[1]); a != b {
			t.Fatalf("op %d (kind %d): streams diverge:\nincremental:\n%s\nfull rescan:\n%s", op, kind, a, b)
		}
	}
	return servers[0].stripWalks
}

// FuzzDemandOps is the model check of the incremental demand scan; see
// demandOps. Its seeds are the files under testdata/fuzz/FuzzDemandOps,
// named for the path each one drives; go test runs them in tier-1.
func FuzzDemandOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { demandOps(t, data) })
}

// TestDemandOpsRandom drives demandOps with random sequences, and checks
// that they take the strip path.
func TestDemandOpsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var strips int64
	for i := 0; i < 8; i++ {
		data := make([]byte, 3*32)
		r.Read(data)
		strips += demandOps(t, data)
	}
	if strips == 0 {
		t.Fatal("no demand walk took the strip path")
	}
}
