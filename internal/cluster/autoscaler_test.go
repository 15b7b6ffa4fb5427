// Tests for the autoscaling subsystem's three legs: the failure
// tracker's quarantine arithmetic, the migration planner's safety
// property, and the AddShard/RemoveShard lifecycle — including replay
// determinism across worker-pool sizes and drain safety under a
// storage brownout.

package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/world"
)

func TestFailureTrackerQuarantinesOnThirdCrash(t *testing.T) {
	ft := newFailureTracker(failureTrackerConfig{maxFailures: 3, window: time.Minute, probation: 30 * time.Second})
	if ft.RecordFailure(1, 10*time.Second) {
		t.Fatal("first crash quarantined")
	}
	if ft.RecordFailure(1, 20*time.Second) {
		t.Fatal("second crash quarantined")
	}
	if ft.Quarantined(1, 25*time.Second) {
		t.Fatal("quarantined before the threshold")
	}
	if !ft.RecordFailure(1, 30*time.Second) {
		t.Fatal("third crash in window did not quarantine")
	}
	if !ft.Quarantined(1, 31*time.Second) {
		t.Fatal("not quarantined after the entering transition")
	}
	// Other shards are unaffected.
	if ft.Quarantined(0, 31*time.Second) {
		t.Fatal("unrelated shard quarantined")
	}
}

func TestFailureTrackerWindowPrunesOldCrashes(t *testing.T) {
	ft := newFailureTracker(failureTrackerConfig{maxFailures: 3, window: time.Minute, probation: 30 * time.Second})
	ft.RecordFailure(0, 0)
	ft.RecordFailure(0, 10*time.Second)
	if got := len(ft.prune(0, 10*time.Second)); got != 2 {
		t.Fatalf("failures in window = %d, want 2", got)
	}
	// 70s: the crash at t=0 has aged out; this is only the second crash
	// in the rolling window, so no quarantine.
	if ft.RecordFailure(0, 70*time.Second) {
		t.Fatal("quarantined though the first crash aged out of the window")
	}
	if got := len(ft.prune(0, 70*time.Second)); got != 2 {
		t.Fatalf("failures in window = %d, want 2", got)
	}
}

func TestFailureTrackerProbationReleasesAndForgets(t *testing.T) {
	ft := newFailureTracker(failureTrackerConfig{maxFailures: 2, window: time.Minute, probation: 30 * time.Second})
	ft.RecordFailure(2, 10*time.Second)
	if !ft.RecordFailure(2, 20*time.Second) {
		t.Fatal("second crash did not quarantine")
	}
	// A crash while quarantined is not a fresh quarantine event but
	// extends probation via the last-crash time: release moves from
	// 20s+30s to 25s+30s.
	if ft.RecordFailure(2, 25*time.Second) {
		t.Fatal("crash inside quarantine double-counted as a quarantine event")
	}
	if !ft.Quarantined(2, 54*time.Second) {
		t.Fatal("released before probation elapsed since the last crash")
	}
	if ft.Quarantined(2, 55*time.Second) {
		t.Fatal("not released once probation elapsed since the last crash")
	}
	// Release wipes the slate: the next crash starts a fresh count.
	if ft.RecordFailure(2, 56*time.Second) {
		t.Fatal("post-probation crash re-quarantined off stale history")
	}
}

// TestPlanBalanceNeverRaisesMaxLoad is the planner's core safety
// property: over randomized tile/rate/owner snapshots, the plan never
// increases the maximum per-shard load, never exceeds maxMoves, and
// only routes between candidate shards.
func TestPlanBalanceNeverRaisesMaxLoad(t *testing.T) {
	index := func(tile world.TileID) int { return tile.X*1024 + tile.Z }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		candidates := []int{0, 1, 2, 3}[:2+rng.Intn(3)]
		nTiles := 1 + rng.Intn(12)
		rates := make([]TileRate, 0, nTiles)
		for i := 0; i < nTiles; i++ {
			owner := rng.Intn(5) // may land outside the candidate set
			rates = append(rates, TileRate{
				Tile:  world.TileID{X: i % 7, Z: i / 7},
				Owner: owner,
				Rate:  float64(rng.Intn(50)),
			})
		}
		maxMoves := 1 + rng.Intn(4)
		before := maxLoad(rates, candidates)
		plan := PlanBalance(rates, candidates, index, maxMoves)
		if len(plan) > maxMoves {
			t.Fatalf("seed %d: plan has %d moves, cap %d", seed, len(plan), maxMoves)
		}
		cand := make(map[int]bool)
		for _, s := range candidates {
			cand[s] = true
		}
		for _, mv := range plan {
			if !cand[mv.From] || !cand[mv.To] {
				t.Fatalf("seed %d: move %+v touches a non-candidate shard", seed, mv)
			}
		}
		after := maxLoad(applyPlan(rates, plan), candidates)
		if after > before {
			t.Fatalf("seed %d: plan raised max load %g -> %g (plan %+v)", seed, before, after, plan)
		}
		// Determinism: the same inputs replan identically.
		replay := PlanBalance(rates, candidates, index, maxMoves)
		if len(replay) != len(plan) {
			t.Fatalf("seed %d: replan length differs", seed)
		}
		for i := range plan {
			if plan[i] != replay[i] {
				t.Fatalf("seed %d: replan[%d] differs: %+v vs %+v", seed, i, plan[i], replay[i])
			}
		}
	}
}

// TestAddRemoveShardLifecycle: a shard added at runtime receives a tile,
// serves its residents, then drains back out — ownership returns to the
// survivors, the residents follow with zero loss, and the retired slot
// is reused by the next AddShard.
func TestAddRemoveShardLifecycle(t *testing.T) {
	loop, c := newTestCluster(t, 5, 2, Config{})
	band := world.TileID{X: 2}
	p := c.ConnectAt("resident", nil, c.TileCenter(band))
	sess := c.Session(p)
	sess.Inventory = 29
	c.Start()
	loop.RunUntil(5 * time.Second)

	idx := c.AddShard()
	if idx != 2 {
		t.Fatalf("AddShard returned %d, want 2", idx)
	}
	if got := c.AliveCount(); got != 3 {
		t.Fatalf("alive = %d after AddShard, want 3", got)
	}
	if !c.migrateTile(band, idx, MoveRebalance) {
		t.Fatal("migrateTile onto the new shard refused")
	}
	loop.RunUntil(30 * time.Second)
	if got := c.table.Owner(band); got != idx {
		t.Fatalf("band owner = %d after spread, want %d", got, idx)
	}
	if p.Shard() != idx {
		t.Fatalf("resident on shard %d, want %d", p.Shard(), idx)
	}

	if !c.RemoveShard(idx) {
		t.Fatal("RemoveShard refused")
	}
	loop.RunUntil(2 * time.Minute)
	if c.table.Alive(idx) {
		t.Fatal("drained shard still alive")
	}
	if got := c.AliveCount(); got != 2 {
		t.Fatalf("alive = %d after retire, want 2", got)
	}
	if got := c.table.Owner(band); got == idx {
		t.Fatal("retired shard still owns its tile")
	}
	if p.Shard() == idx {
		t.Fatal("resident stranded on the retired shard")
	}
	sess = c.Session(p)
	if sess == nil {
		t.Fatal("resident lost in the drain")
	}
	if sess.Inventory != 29 {
		t.Fatalf("inventory lost in the drain: %d", sess.Inventory)
	}
	if c.Journal.Count(MoveDrain) == 0 {
		t.Fatal("drain moved no tiles; test proves nothing")
	}

	// Boot shards are never drained; the retired slot is reused.
	if c.RemoveShard(0) {
		t.Fatal("RemoveShard drained a boot shard")
	}
	if again := c.AddShard(); again != idx {
		t.Fatalf("AddShard after retire returned %d, want reused slot %d", again, idx)
	}
}

// TestAddRemoveShardDeterministicReplay is the lifecycle leg of the
// determinism contract: the journal is identical across runs and across
// worker-pool sizes.
func TestAddRemoveShardDeterministicReplay(t *testing.T) {
	run := func(workers int) (string, *Cluster) {
		loop, c := newTestCluster(t, 77, 2, Config{})
		loop.SetWorkers(workers)
		for i := 0; i < 6; i++ {
			c.ConnectAt(fmt.Sprintf("p%d", i), nil, c.TileCenter(world.TileID{X: 2}))
		}
		c.ConnectAt("edge", walker(200, 8, 8), c.TileCenter(world.TileID{X: 1}))
		c.Start()
		loop.RunUntil(5 * time.Second)
		idx := c.AddShard()
		c.migrateTile(world.TileID{X: 2}, idx, MoveRebalance)
		loop.RunUntil(30 * time.Second)
		c.RemoveShard(idx)
		loop.RunUntil(2 * time.Minute)
		if c.table.Alive(idx) {
			t.Fatalf("workers=%d: drain never finished", workers)
		}
		return journalText(c), c
	}
	j1, c := run(1)
	j4, _ := run(4)
	if c.Journal.Count(ScaleUp, Drain, ScaleDown) == 0 || c.Journal.Count(moveKinds...) == 0 || c.Journal.Count(Handoff) == 0 {
		t.Fatal("no scale, move or handoff records; test proves nothing")
	}
	if j1 != j4 {
		t.Fatalf("journals differ between workers=1 and workers=4:\n%s", firstDiff(j1, j4))
	}
}

// TestDrainBrownoutDelaysButNeverLoses: retiring a shard under a heavy
// storage brownout. The drain's migrations are flush-gated, so the
// brownout delays the retirement — but every resident and their state
// arrive intact on the survivors once the store recovers.
func TestDrainBrownoutDelaysButNeverLoses(t *testing.T) {
	loop, remote, c := newStoreCluster(t, 7, 2, Config{})
	band := world.TileID{X: 2}
	p := c.ConnectAt("holdout", nil, c.TileCenter(band))
	c.Start()
	loop.RunUntil(10 * time.Second)

	idx := c.AddShard()
	if !c.migrateTile(band, idx, MoveRebalance) {
		t.Fatal("migrateTile onto the new shard refused")
	}
	loop.RunUntil(40 * time.Second)
	if p.Shard() != idx {
		t.Fatalf("resident on shard %d before the drain, want %d", p.Shard(), idx)
	}
	c.Session(p).Inventory = 41

	// Brownout: most reads and writes fail, everything is 20x slower.
	remote.SetChaos(&blob.Chaos{WriteErrorRate: 0.6, ReadErrorRate: 0.6, LatencyFactor: 20})
	if !c.RemoveShard(idx) {
		t.Fatal("RemoveShard refused")
	}
	// Mid-brownout the flush is still fighting faults: the shard must
	// not have retired yet (delayed, not skipped).
	loop.RunUntil(40*time.Second + 50*time.Millisecond)
	if !c.table.Alive(idx) {
		t.Fatal("shard retired before its drain flush landed")
	}
	loop.RunUntil(3 * time.Minute)
	remote.SetChaos(nil)
	loop.RunUntil(6 * time.Minute)

	if c.table.Alive(idx) {
		t.Fatal("drain never completed after the brownout")
	}
	if remote.FaultsInjected.Value() == 0 {
		t.Fatal("brownout injected no faults; test proves nothing")
	}
	if p.Shard() == idx {
		t.Fatal("resident stranded on the retired shard")
	}
	sess := c.Session(p)
	if sess == nil {
		t.Fatal("resident lost in the brownout drain")
	}
	if sess.Inventory != 41 {
		t.Fatalf("inventory lost in the brownout drain: %d", sess.Inventory)
	}
}
