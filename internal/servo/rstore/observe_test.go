package rstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/world"
)

// observer is what the differential test drives on each side.
type observer interface {
	ObserveAvatars(positions []world.BlockPos, radius int)
}

// side is one loop + blob + cache stack with an observer on top.
type side struct {
	loop   *sim.Loop
	remote *blob.Store
	cache  *tcache.Cache
	obs    observer
}

// arena is the chunk range (inclusive, both axes) the differential test
// compares: it covers every view rect the fleet can produce.
const arena = 24

// newSide builds a stack whose remote holds the chunks present reports.
func newSide(seed int64, budget int, present func(world.ChunkPos) bool, oracle bool) *side {
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	for x := -arena; x <= arena; x++ {
		for z := -arena; z <= arena; z++ {
			if cp := (world.ChunkPos{X: x, Z: z}); present(cp) {
				remote.Put(tcache.Key(cp), []byte("remote"), nil)
			}
		}
	}
	loop.Run()
	cfg := tcache.DefaultConfig()
	cfg.PrefetchBudget = budget
	s := &side{loop: loop, remote: remote, cache: tcache.New(loop, remote, cfg)}
	if oracle {
		s.obs = newOracle(s.cache)
	} else {
		s.obs = New(s.cache)
	}
	return s
}

// snapshot is everything the test can see of a side: the cache's status
// for every arena chunk (so the local, absent and pending sets), the
// counters, and the clock.
func (s *side) snapshot() string {
	status := make([]byte, 0, (2*arena+1)*(2*arena+1))
	for x := -arena; x <= arena; x++ {
		for z := -arena; z <= arena; z++ {
			status = append(status, '0'+byte(s.cache.Status(world.ChunkPos{X: x, Z: z})))
		}
	}
	return fmt.Sprintf("now=%v prefetches=%d reads=%d hits=%d misses=%d %s", s.loop.Now(),
		s.cache.PrefetchIssued.Value(), s.remote.Reads.Value(), s.cache.Hits.Value(), s.cache.Misses.Value(), status)
}

// TestObserveAvatarsMatchesOracle is the behaviour-preservation proof:
// two identically seeded stacks, one observed by the old loop and one by
// ObserveAvatars, fed the same random fleet (walking, joining and leaving
// mid-list, teleporting), radius changes, demand reads, writes over
// absent chunks, and clock advances short enough that prefetches land
// between calls. After every call and every advance both sides must show
// the same local / absent / pending sets and the same counters.
//
// The remote reads a call starts are the chunks that turn Pending in it,
// so equal snapshots mean equal sets of reads per call. Their order
// decides which read draws which latency, and so when each lands: the
// snapshots after the advances pin that. Under budget 1 a call starts at
// most one read, which makes the snapshots the exact key sequence.
func TestObserveAvatarsMatchesOracle(t *testing.T) {
	for _, budget := range []int{0, 1, 8, 64} {
		// Avatars stay within ±span blocks. At one read a call the fleet
		// must be small and the world close for anything to settle.
		span, steps, size, radii := 250, 300, 12, []int{48, 64, 100, 112}
		if budget == 1 {
			span, steps, size, radii = 60, 600, 4, []int{16, 40, 48}
		}
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(budget)))
			salt := r.Intn(1 << 16)
			present := func(cp world.ChunkPos) bool { return (cp.X*31+cp.Z*17+salt)%3 != 0 }
			want := newSide(seed, budget, present, true)
			got := newSide(seed, budget, present, false)
			store := got.obs.(*Store)
			compare := func(step int, what string) {
				t.Helper()
				if w, g := want.snapshot(), got.snapshot(); w != g {
					t.Fatalf("budget %d seed %d step %d, after %s:\noracle %s\nstore  %s", budget, seed, step, what, w, g)
				}
			}

			randPos := func() world.BlockPos {
				return world.BlockPos{X: r.Intn(2*span) - span, Z: r.Intn(2*span) - span}
			}
			randChunk := func() world.ChunkPos {
				return world.ChunkPos{X: r.Intn(2*arena+1) - arena, Z: r.Intn(2*arena+1) - arena}
			}
			var fleet []world.BlockPos
			for i := 0; i < size; i++ {
				fleet = append(fleet, randPos())
			}
			radius := radii[r.Intn(len(radii))]
			peak := 0
			for step := 0; step < steps; step++ {
				// Move the fleet: most avatars walk, a few stand still.
				for i := range fleet {
					if r.Intn(4) == 0 {
						continue
					}
					fleet[i].X = min(max(fleet[i].X+r.Intn(13)-6, -span), span)
					fleet[i].Z = min(max(fleet[i].Z+r.Intn(13)-6, -span), span)
				}
				switch r.Intn(12) {
				case 0: // join mid-list: every later avatar's index shifts
					if len(fleet) < 2*size {
						fleet = slices.Insert(fleet, r.Intn(len(fleet)+1), randPos())
					}
				case 1: // leave mid-list
					if len(fleet) > 1 {
						i := r.Intn(len(fleet))
						fleet = slices.Delete(fleet, i, i+1)
					}
				case 2: // teleport
					fleet[r.Intn(len(fleet))] = randPos()
				case 3:
					if r.Intn(4) == 0 {
						radius = radii[r.Intn(len(radii))]
					}
				}
				// The game's own traffic between observations: demand
				// reads, and writes (over absent, pending, local and
				// unknown chunks alike).
				for n := r.Intn(4); n > 0; n-- {
					cp := randChunk()
					want.cache.Get(cp, func([]byte, error) {})
					got.cache.Get(cp, func([]byte, error) {})
				}
				for n := r.Intn(3); n > 0; n-- {
					cp := randChunk()
					want.cache.Put(cp, []byte("written"))
					got.cache.Put(cp, []byte("written"))
				}

				want.obs.ObserveAvatars(fleet, radius)
				got.obs.ObserveAvatars(fleet, radius)
				compare(step, "the call")
				if bound := settledPerAvatar*len(fleet) + settledSlack + len(fleet); len(store.settled) > bound {
					t.Fatalf("budget %d seed %d step %d: settled set holds %d rects for %d avatars", budget, seed, step, len(store.settled), len(fleet))
				}
				peak = max(peak, len(store.settled))

				d := time.Duration(r.Intn(60)) * time.Millisecond
				want.loop.RunUntil(want.loop.Now() + d)
				got.loop.RunUntil(got.loop.Now() + d)
				compare(step, "the advance")
			}
			if want.cache.PrefetchIssued.Value() == 0 {
				t.Fatalf("budget %d seed %d: no prefetch issued; test proves nothing", budget, seed)
			}
			if peak == 0 {
				t.Fatalf("budget %d seed %d: nothing ever settled; test proves nothing", budget, seed)
			}
		}
	}
}

// TestObserveAvatarsBatchOrder pins the prefetch order: the unknown
// chunks, each once, in order of first appearance over the avatars'
// ChunksWithin lists. It is read off the cache rather than the store's
// working set: with a budget of one, each call starts exactly the next
// read in that order, so repeating the call walks the whole sequence.
func TestObserveAvatarsBatchOrder(t *testing.T) {
	loop := sim.NewLoop(6)
	cfg := tcache.DefaultConfig()
	cfg.PrefetchBudget = 1
	cache := tcache.New(loop, blob.NewStore(loop, blob.TierPremium), cfg)
	s := New(cache)
	r := rand.New(rand.NewSource(6))
	issued := int64(0)
	for round := 0; round < 12; round++ {
		positions := make([]world.BlockPos, 1+r.Intn(6))
		for i := range positions {
			positions[i] = world.BlockPos{X: r.Intn(300) - 150, Z: r.Intn(300) - 150}
		}
		radius := 16 * r.Intn(4)
		seen := make(map[world.ChunkPos]bool)
		var want []world.ChunkPos
		for _, p := range positions {
			for _, cp := range world.ChunksWithin(p, radius) {
				if !seen[cp] && cache.Status(cp) == tcache.Unknown {
					seen[cp] = true
					want = append(want, cp)
				}
			}
		}
		for i, cp := range want {
			s.ObserveAvatars(positions, radius)
			issued++
			if got := cache.PrefetchIssued.Value(); got != issued {
				t.Fatalf("round %d call %d: %d prefetches issued, want %d", round, i, got, issued)
			}
			if cache.Status(cp) != tcache.Pending {
				t.Fatalf("round %d call %d: the read started was not %v, next in first-appearance order", round, i, cp)
			}
		}
		s.ObserveAvatars(positions, radius)
		if got := cache.PrefetchIssued.Value(); got != issued {
			t.Fatalf("round %d: a prefetch was issued with nothing unknown in view", round)
		}
		// Let some of the reads land (as absent) before the next round.
		loop.RunUntil(loop.Now() + 20*time.Millisecond)
	}
	if issued == 0 {
		t.Fatal("no prefetch issued; test proves nothing")
	}
}

// warmFleet returns a store over a cache that knows every chunk the
// fleet can see (n avatars in a row, 40 blocks apart in Z, walking from
// x=0 to x=length), and the fleet at its starting line.
func warmFleet(n, length, radius int) (*tcache.Cache, []world.BlockPos) {
	loop := sim.NewLoop(1)
	cache := tcache.New(loop, blob.NewStore(loop, blob.TierPremium), tcache.DefaultConfig())
	fleet := make([]world.BlockPos, n)
	for i := range fleet {
		fleet[i] = world.BlockPos{Z: 40 * i}
	}
	lo := world.ChunkRectWithin(fleet[0], radius).Min
	hi := world.ChunkRectWithin(world.BlockPos{X: length, Z: 40 * (n - 1)}, radius).Max
	data := []byte("warm")
	for x := lo.X; x <= hi.X; x++ {
		for z := lo.Z; z <= hi.Z; z++ {
			cache.Put(world.ChunkPos{X: x, Z: z}, data)
		}
	}
	return cache, fleet
}

// TestObserveAvatarsSettledZeroAlloc: once a fleet's rects are settled an
// observation allocates nothing, standing or walking over known ground.
func TestObserveAvatarsSettledZeroAlloc(t *testing.T) {
	const radius = 128 + 48
	cache, fleet := warmFleet(100, 64, radius)
	s := New(cache)
	s.ObserveAvatars(fleet, radius)
	if got := testing.AllocsPerRun(50, func() { s.ObserveAvatars(fleet, radius) }); got != 0 {
		t.Fatalf("settled fleet: %v allocs per call, want 0", got)
	}
	// Walk there and back once so the settled set has grown to hold the
	// trail; the second lap must then be free as well.
	lap := func() {
		for _, dx := range []int{2, -2} {
			for step := 0; step < 32; step++ {
				for i := range fleet {
					fleet[i].X += dx
				}
				s.ObserveAvatars(fleet, radius)
			}
		}
	}
	lap()
	if got := testing.AllocsPerRun(1, lap); got != 0 {
		t.Fatalf("walking fleet: %v allocs per lap, want 0", got)
	}
	if cache.PrefetchIssued.Value() != 0 {
		t.Fatal("prefetch issued over fully known ground")
	}
}

// TestForgetDroppingNothingKeepsSettled: a forget that returns no record
// to Unknown (here it matches a chunk the cache never knew and one whose
// unflushed write it keeps) leaves the settled rects, so the next
// observation skips the avatars standing in them; a forget that does
// drop a record clears them, and the next observation walks again and
// prefetches exactly that chunk.
func TestForgetDroppingNothingKeepsSettled(t *testing.T) {
	const radius = 64
	cache, fleet := warmFleet(4, 0, radius)
	cache.Flush() // every record clean, so a forget can drop it
	rect := world.ChunkRectWithin(fleet[0], radius)
	cache.Put(rect.Max, []byte("mine"))
	s := New(cache)
	s.ObserveAvatars(fleet, radius)
	settled := len(s.settled)
	if settled == 0 {
		t.Fatal("no rect settled over fully known ground; test proves nothing")
	}
	unknown := world.ChunkPos{X: 100000}
	s.ForgetWhere(func(cp world.ChunkPos) bool { return cp == unknown || cp == rect.Max })
	if got := len(s.settled); got != settled {
		t.Fatalf("a forget that dropped nothing left %d of %d settled rects", got, settled)
	}
	for _, p := range fleet {
		if _, ok := s.settled[world.ChunkRectWithin(p, radius)]; !ok {
			t.Fatalf("the avatar at %v is no longer settled: the next observation walks it", p)
		}
	}
	s.ObserveAvatars(fleet, radius)
	if got := len(s.settled); got != settled || cache.PrefetchIssued.Value() != 0 {
		t.Fatalf("after the forget: %d settled rects (want %d), %d prefetches (want 0)", got, settled, cache.PrefetchIssued.Value())
	}

	near := rect.Min
	s.ForgetWhere(func(cp world.ChunkPos) bool { return cp == near })
	if got := len(s.settled); got != 0 {
		t.Fatalf("a forget that dropped a record left %d settled rects", got)
	}
	s.ObserveAvatars(fleet, radius)
	if got := cache.PrefetchIssued.Value(); got != 1 || cache.Status(near) != tcache.Pending {
		t.Fatalf("after forgetting %v: %d prefetches, status %v; want 1 and Pending", near, got, cache.Status(near))
	}
}

// BenchmarkObserveAvatars measures one observation of 100 avatars at the
// default radius over known ground: standing still, walking two blocks a
// call (down a 1024-block corridor and back, so rects keep being new and
// the settled set keeps being dropped and rebuilt), and the oracle doing
// either (it does not tell them apart).
func BenchmarkObserveAvatars(b *testing.B) {
	const (
		n      = 100
		length = 1024
		radius = 128 + 48
	)
	run := func(b *testing.B, obs observer, fleet []world.BlockPos, dx int) {
		obs.ObserveAvatars(fleet, radius)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fleet[0].X+dx < 0 || fleet[0].X+dx > length {
				dx = -dx
			}
			for j := range fleet {
				fleet[j].X += dx
			}
			obs.ObserveAvatars(fleet, radius)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/avatar")
	}
	b.Run("settled", func(b *testing.B) {
		cache, fleet := warmFleet(n, length, radius)
		run(b, New(cache), fleet, 0)
	})
	b.Run("walking", func(b *testing.B) {
		cache, fleet := warmFleet(n, length, radius)
		run(b, New(cache), fleet, 2)
	})
	b.Run("oracle", func(b *testing.B) {
		cache, fleet := warmFleet(n, length, radius)
		run(b, newOracle(cache), fleet, 2)
	})
}
