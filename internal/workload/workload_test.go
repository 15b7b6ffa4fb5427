package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"servo/internal/mve"
	"servo/internal/sim"
)

func newServer(seed int64) (*sim.Loop, *mve.Server) {
	loop := sim.NewLoop(seed)
	return loop, mve.NewServer(loop, mve.Config{WorldType: "flat", Seed: seed})
}

func TestBoundedMoveStaysInBounds(t *testing.T) {
	loop, s := newServer(1)
	p := s.ConnectAt("a", &BoundedMove{Radius: 40}, 0, 0)
	s.Start()
	loop.RunUntil(5 * time.Minute)
	// Destinations are within the radius, so the avatar can stray at most
	// marginally past it mid-path.
	if math.Abs(p.X) > 41 || math.Abs(p.Z) > 41 {
		t.Fatalf("avatar escaped the bounded area: (%v, %v)", p.X, p.Z)
	}
	// And it must actually move.
	if p.X == 0 && p.Z == 0 {
		t.Fatal("avatar never moved")
	}
}

func TestStarPatternFansOut(t *testing.T) {
	loop, s := newServer(2)
	players := make([]*mve.Player, 0, 5)
	for i := 0; i < 5; i++ {
		players = append(players, s.ConnectAt("s", &Star{Speed: 3}, 0, 0))
	}
	s.Start()
	loop.RunUntil(3 * time.Minute)
	// Every player should be roughly 3 b/s × elapsed from spawn (modulo
	// slow ticks early on), each in a distinct direction.
	dirs := make(map[[2]int]bool)
	for _, p := range players {
		dist := math.Hypot(p.X, p.Z)
		if dist < 200 {
			t.Fatalf("star player only %v blocks from spawn after 3 min at 3 b/s", dist)
		}
		key := [2]int{int(math.Round(p.X / dist * 4)), int(math.Round(p.Z / dist * 4))}
		dirs[key] = true
	}
	if len(dirs) < 4 {
		t.Fatalf("players did not fan out: %d distinct directions", len(dirs))
	}
}

func TestStarRampIncreasesSpeed(t *testing.T) {
	loop, s := newServer(3)
	p := s.ConnectAt("inc", &Star{Speed: 1, RampEvery: 30 * time.Second}, 0, 0)
	s.Start()
	loop.RunUntil(20 * time.Second)
	d1 := math.Hypot(p.X, p.Z)
	loop.RunUntil(loop.Now() + 20*time.Second)
	d2 := math.Hypot(p.X, p.Z) - d1
	loop.RunUntil(loop.Now() + 2*time.Minute) // speed now ≥ 5
	before := math.Hypot(p.X, p.Z)
	loop.RunUntil(loop.Now() + 20*time.Second)
	d3 := math.Hypot(p.X, p.Z) - before
	if d3 <= d2*1.5 {
		t.Fatalf("speed did not ramp: early 20s leg %v blocks, late 20s leg %v", d2, d3)
	}
}

func TestRandomBehaviorActionMix(t *testing.T) {
	// Table II: 40% move, 30% block op, 20% stand, 5% chat, 5% inventory.
	b := &Random{}
	loop, s := newServer(4)
	p := s.ConnectAt("r", nil, 0, 0)
	r := rand.New(rand.NewSource(7))
	counts := map[mve.ActionKind]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		b.ticks = 0 // force a decision every call
		for _, a := range b.Actions(r, p, s) {
			counts[a.Kind]++
		}
	}
	_ = loop
	frac := func(k mve.ActionKind) float64 { return float64(counts[k]) / trials }
	within := func(got, want, tol float64) bool { return got > want-tol && got < want+tol }
	if !within(frac(mve.ActionMove), 0.40, 0.02) {
		t.Errorf("move fraction = %v, want 0.40", frac(mve.ActionMove))
	}
	blocks := frac(mve.ActionPlaceBlock) + frac(mve.ActionBreakBlock)
	if !within(blocks, 0.30, 0.02) {
		t.Errorf("block-op fraction = %v, want 0.30", blocks)
	}
	if !within(frac(mve.ActionIdle), 0.20, 0.02) {
		t.Errorf("stand fraction = %v, want 0.20", frac(mve.ActionIdle))
	}
	if !within(frac(mve.ActionChat), 0.05, 0.01) {
		t.Errorf("chat fraction = %v, want 0.05", frac(mve.ActionChat))
	}
	if !within(frac(mve.ActionSetInventory), 0.05, 0.01) {
		t.Errorf("inventory fraction = %v, want 0.05", frac(mve.ActionSetInventory))
	}
}

func TestRandomBehaviorRunsOnServer(t *testing.T) {
	loop, s := newServer(5)
	for i := 0; i < 4; i++ {
		s.ConnectAt("r", &Random{}, 0, 0)
	}
	s.Start()
	loop.RunUntil(2 * time.Minute)
	if s.ActionCount.Value() == 0 {
		t.Fatal("random behavior produced no actions")
	}
	if s.ChatsDelivered.Value() == 0 {
		t.Fatal("no chats after 2 minutes of random behavior")
	}
}

func TestForName(t *testing.T) {
	cases := map[string]string{
		"A":     "*workload.BoundedMove",
		"R":     "*workload.Random",
		"Sinc":  "*workload.Star",
		"S3":    "*workload.Star",
		"S8":    "*workload.Star",
		"bogus": "*workload.BoundedMove",
		"Sx":    "*workload.BoundedMove",
	}
	for name, wantType := range cases {
		b := ForName(name)
		if got := typeName(b); got != wantType {
			t.Errorf("ForName(%q) = %s, want %s", name, got, wantType)
		}
	}
	if s, ok := ForName("S8").(*Star); !ok || s.Speed != 8 {
		t.Error("ForName(S8) speed wrong")
	}
	if s, ok := ForName("Sinc").(*Star); !ok || s.RampEvery != 200*time.Second {
		t.Error("ForName(Sinc) ramp wrong")
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *BoundedMove:
		return "*workload.BoundedMove"
	case *Random:
		return "*workload.Random"
	case *Star:
		return "*workload.Star"
	}
	return "?"
}
