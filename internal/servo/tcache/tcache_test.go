package tcache

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/sim"
	"servo/internal/world"
)

func newFixture(seed int64) (*sim.Loop, *blob.Store, *Cache) {
	loop := sim.NewLoop(seed)
	remote := blob.NewStore(loop, blob.TierPremium)
	c := New(loop, remote, DefaultConfig())
	return loop, remote, c
}

func seedRemote(loop *sim.Loop, remote *blob.Store, pos world.ChunkPos, data []byte) {
	remote.Put(Key(pos), data, nil)
	loop.Run()
}

func TestGetMissFetchesFromRemoteAndCaches(t *testing.T) {
	loop, remote, c := newFixture(1)
	pos := world.ChunkPos{X: 1, Z: 2}
	seedRemote(loop, remote, pos, []byte("chunkdata"))

	var got []byte
	c.Get(pos, func(data []byte, err error) {
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		got = data
	})
	loop.Run()
	if string(got) != "chunkdata" {
		t.Fatalf("got %q", got)
	}
	if c.Misses.Value() != 1 || c.Hits.Value() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", c.Hits.Value(), c.Misses.Value())
	}
	if c.Status(pos) != Local {
		t.Fatal("fetched chunk not cached locally")
	}

	// Second read must hit locally.
	c.Get(pos, func([]byte, error) {})
	loop.Run()
	if c.Hits.Value() != 1 {
		t.Fatalf("second read did not hit the cache")
	}
}

func TestGetMissingEverywhere(t *testing.T) {
	loop, _, c := newFixture(1)
	var gotErr error
	c.Get(world.ChunkPos{X: 9, Z: 9}, func(_ []byte, err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, blob.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", gotErr)
	}
}

func TestPrefetchHidesRemoteLatency(t *testing.T) {
	loop, remote, c := newFixture(2)
	pos := world.ChunkPos{X: 5, Z: 5}
	seedRemote(loop, remote, pos, []byte("data"))

	c.Prefetch([]world.ChunkPos{pos})
	loop.RunUntil(loop.Now() + 5*time.Second) // let the prefetch land

	start := loop.Now()
	var latency time.Duration
	c.Get(pos, func([]byte, error) { latency = loop.Now() - start })
	loop.Run()
	if latency > 20*time.Millisecond {
		t.Fatalf("post-prefetch read took %v, want local-class latency", latency)
	}
	if c.PrefetchIssued.Value() != 1 {
		t.Fatalf("prefetches = %d, want 1", c.PrefetchIssued.Value())
	}
}

func TestPrefetchSkipsCachedAndInflight(t *testing.T) {
	loop, remote, c := newFixture(3)
	pos := world.ChunkPos{X: 1, Z: 1}
	seedRemote(loop, remote, pos, []byte("d"))
	c.Prefetch([]world.ChunkPos{pos})
	c.Prefetch([]world.ChunkPos{pos}) // in flight: must not duplicate
	loop.Run()
	c.Prefetch([]world.ChunkPos{pos}) // cached: must not refetch
	loop.Run()
	if got := c.PrefetchIssued.Value(); got != 1 {
		t.Fatalf("prefetch issued %d remote reads, want 1", got)
	}
	if remote.Reads.Value() != 1 {
		t.Fatalf("remote reads = %d, want 1", remote.Reads.Value())
	}
}

func TestConcurrentGetsCoalesce(t *testing.T) {
	loop, remote, c := newFixture(4)
	pos := world.ChunkPos{X: 2, Z: 3}
	seedRemote(loop, remote, pos, []byte("d"))
	results := 0
	for i := 0; i < 5; i++ {
		c.Get(pos, func(data []byte, err error) {
			if err != nil || string(data) != "d" {
				t.Errorf("bad result: %q %v", data, err)
			}
			results++
		})
	}
	loop.Run()
	if results != 5 {
		t.Fatalf("callbacks = %d, want 5", results)
	}
	if remote.Reads.Value() != 1 {
		t.Fatalf("remote reads = %d, want 1 (coalesced)", remote.Reads.Value())
	}
}

func TestPutIsWriteBack(t *testing.T) {
	loop, remote, c := newFixture(5)
	pos := world.ChunkPos{X: 7, Z: 7}
	c.Put(pos, []byte("new"))
	if remote.Writes.Value() != 0 {
		t.Fatal("Put must not write through synchronously")
	}
	if c.DirtyLen() != 1 {
		t.Fatalf("dirty = %d, want 1", c.DirtyLen())
	}
	c.Flush()
	loop.Run()
	var persisted []byte
	remote.Get(Key(pos), func(data []byte, _ error) { persisted = data })
	loop.Run()
	if string(persisted) != "new" {
		t.Fatal("flush did not persist the chunk")
	}
	if c.DirtyLen() != 0 {
		t.Fatal("flush did not clear dirty set")
	}
}

func TestStartFlusherPeriodicWriteBack(t *testing.T) {
	loop, remote, c := newFixture(6)
	c.StartFlusher()
	c.StartFlusher() // idempotent
	c.Put(world.ChunkPos{X: 1, Z: 0}, []byte("a"))
	loop.RunUntil(45 * time.Second) // one flush interval (30s) passes
	if remote.Writes.Value() != 1 {
		t.Fatalf("remote writes = %d, want 1 after first flush", remote.Writes.Value())
	}
	// Nothing new dirty: the next interval must not rewrite.
	loop.RunUntil(100 * time.Second)
	if remote.Writes.Value() != 1 {
		t.Fatalf("idle flusher wrote %d times, want 1", remote.Writes.Value())
	}
}

func TestLocalWriteWinsOverRacingFetch(t *testing.T) {
	loop, remote, c := newFixture(7)
	pos := world.ChunkPos{X: 4, Z: 4}
	seedRemote(loop, remote, pos, []byte("stale"))
	// Start a fetch, then write locally before it completes.
	var got []byte
	c.Get(pos, func(data []byte, err error) { got = data })
	c.Put(pos, []byte("fresh"))
	loop.Run()
	if string(got) != "fresh" {
		t.Fatalf("racing fetch returned %q, want the newer local write", got)
	}
	// And the cache must retain the local version.
	var second []byte
	c.Get(pos, func(data []byte, _ error) { second = data })
	loop.Run()
	if string(second) != "fresh" {
		t.Fatalf("cache kept stale data %q", second)
	}
}

// TestLocalWriteWinsOverRacingNotFound: the same rule when the remote
// read comes back not-found. The waiters get the newer local bytes, and
// the position stays Local ("absent" means we hold nothing).
func TestLocalWriteWinsOverRacingNotFound(t *testing.T) {
	loop, _, c := newFixture(7)
	pos := world.ChunkPos{X: 4, Z: 4}
	var got []byte
	var gotErr error
	c.Get(pos, func(data []byte, err error) { got, gotErr = data, err })
	c.Put(pos, []byte("fresh"))
	loop.Run()
	if gotErr != nil || string(got) != "fresh" {
		t.Fatalf("racing fetch returned %q, %v; want the newer local write", got, gotErr)
	}
	if got := c.Status(pos); got != Local {
		t.Fatalf("status = %d, want Local", got)
	}
	if c.RetrievalLatency.Len() != 1 {
		t.Fatalf("latency samples = %d, want 1 (the read succeeded)", c.RetrievalLatency.Len())
	}
}

// TestForgetWhereRereadsStorage: ForgetWhere drops the Local and Absent
// records it matches, whether or not anyone holds their chunks, so the next
// Get reads what storage holds now; a read in flight at the forget is
// dropped when it lands and storage read again for every waiter, those
// that joined after the forget included; a dirty record, a write not yet
// flushed, stays and keeps its write-back; records pred does not match
// stay.
func TestForgetWhereRereadsStorage(t *testing.T) {
	loop, remote, c := newFixture(3)
	local, absent, inflight, dirty, other := world.ChunkPos{X: 1}, world.ChunkPos{X: 2}, world.ChunkPos{X: 3}, world.ChunkPos{X: 4}, world.ChunkPos{X: 9}
	for _, pos := range []world.ChunkPos{local, inflight, other} {
		seedRemote(loop, remote, pos, []byte("old"))
	}
	c.Prefetch([]world.ChunkPos{local, absent, other})
	c.Put(dirty, []byte("mine"))
	loop.Run()
	// A slow read: it captures the old object now and lands after the
	// writes below.
	var early, late []byte
	remote.SetChaos(&blob.Chaos{LatencyFactor: 1000})
	c.Get(inflight, func(data []byte, _ error) { early = data })
	remote.SetChaos(nil)

	landed := 0
	for _, pos := range []world.ChunkPos{local, absent, inflight, dirty, other} {
		remote.Put(Key(pos), []byte("new"), func(error) { landed++ }) // the previous owner's flush
	}
	loop.RunUntil(loop.Now() + time.Second)
	if landed != 5 || c.Status(inflight) != Pending {
		t.Fatalf("%d of 5 writes landed and the slow read is %v, want all and Pending", landed, c.Status(inflight))
	}
	// A read in flight stays Pending and a dirty record stays: no record
	// falls back to Unknown, and ForgetWhere says so.
	if c.ForgetWhere(func(pos world.ChunkPos) bool { return pos == inflight || pos == dirty }) {
		t.Fatal("forgetting a read in flight and a dirty record reported a record dropped")
	}
	if !c.ForgetWhere(func(pos world.ChunkPos) bool { return pos != other }) {
		t.Fatal("forgetting Local and Absent records reported none dropped")
	}
	if got := c.Status(inflight); got != Pending {
		t.Fatalf("a read in flight is %v after ForgetWhere, want Pending", got)
	}
	c.Get(inflight, func(data []byte, _ error) { late = data })
	loop.Run()
	if string(early) != "new" || string(late) != "new" {
		t.Fatalf("the read in flight at the forget answered %q and %q, want the newer bytes", early, late)
	}
	want := map[world.ChunkPos]string{local: "new", absent: "new", inflight: "new", dirty: "mine", other: "old"}
	for pos, w := range want {
		var got []byte
		c.Get(pos, func(data []byte, _ error) { got = data })
		loop.Run()
		if string(got) != w {
			t.Fatalf("%v reads %q after ForgetWhere, want %q", pos, got, w)
		}
	}
	c.Flush()
	loop.Run()
	var stored []byte
	remote.Get(Key(dirty), func(data []byte, _ error) { stored = data })
	loop.Run()
	if string(stored) != "mine" {
		t.Fatalf("the dirty record's write-back stored %q, want %q", stored, "mine")
	}
}

// TestFlushWhereWritesMatchedRecordsDurably: FlushWhere writes the dirty
// records pred matches and no other, clears their flags, and calls done
// only once the write has landed, retrying through a write-fault window;
// with no dirty record matched it calls done before it returns.
func TestFlushWhereWritesMatchedRecordsDurably(t *testing.T) {
	loop, remote, c := newFixture(7)
	mine, other := world.ChunkPos{X: 1}, world.ChunkPos{X: 2}
	c.Put(mine, []byte("mine"))
	c.Put(other, []byte("other"))
	remote.SetChaos(&blob.Chaos{WriteErrorRate: 0.9})
	isMine := func(pos world.ChunkPos) bool { return pos == mine }
	done := false
	c.FlushWhere(isMine, func() { done = true })
	if done || c.DirtyLen() != 1 {
		t.Fatalf("after FlushWhere: done %v, %d dirty; want false, 1 (the unmatched record)", done, c.DirtyLen())
	}
	loop.RunUntil(loop.Now() + time.Minute)
	if !done {
		t.Fatal("FlushWhere's done never ran")
	}
	remote.SetChaos(nil)
	got := map[world.ChunkPos]string{}
	for _, pos := range []world.ChunkPos{mine, other} {
		remote.Get(Key(pos), func(data []byte, _ error) { got[pos] = string(data) })
	}
	loop.Run()
	if got[mine] != "mine" || got[other] != "" {
		t.Fatalf("remote holds %q and %q, want %q and nothing", got[mine], got[other], "mine")
	}
	for _, pred := range []func(world.ChunkPos) bool{isMine, func(world.ChunkPos) bool { return false }} {
		done = false
		c.FlushWhere(pred, func() { done = true })
		if !done {
			t.Fatal("FlushWhere with no dirty record matched did not call done at once")
		}
	}
}

// TestStatusIsMonotone drives a random Get / Prefetch / Put / PutThen /
// Flush schedule (reads and writes failing one time in five, reads
// retrying) and checks the invariant stated on Cache after every operation
// and every clock advance: no position ever returns to Unknown, Local is
// final, and Absent only ever becomes Local. Once the schedule has drained
// and storage has recovered, one Flush must leave nothing dirty, and every
// Local position must serve — and remote storage must hold — its last
// write, or the remote bytes if it was never written.
func TestStatusIsMonotone(t *testing.T) {
	const side = 12
	for seed := int64(1); seed <= 5; seed++ {
		loop, remote, c := newFixture(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < side*side/2; i++ {
			remote.Put(Key(world.ChunkPos{X: r.Intn(side), Z: r.Intn(side)}), []byte("remote"), nil)
		}
		loop.Run()
		remote.SetChaos(&blob.Chaos{ReadErrorRate: 0.2, WriteErrorRate: 0.2})

		var prev [side][side]Status
		check := func(step int, op string) {
			t.Helper()
			for x := 0; x < side; x++ {
				for z := 0; z < side; z++ {
					was, now := prev[x][z], c.Status(world.ChunkPos{X: x, Z: z})
					ok := now == was || was == Unknown ||
						(was == Pending && (now == Local || now == Absent)) ||
						(was == Absent && now == Local)
					if !ok {
						t.Fatalf("seed %d step %d (%s): chunk(%d,%d) went from status %d to %d", seed, step, op, x, z, was, now)
					}
					prev[x][z] = now
				}
			}
		}
		last := map[world.ChunkPos]string{}
		for step := 0; step < 2000; step++ {
			pos := world.ChunkPos{X: r.Intn(side), Z: r.Intn(side)}
			data := fmt.Sprintf("written at step %d", step)
			var op string
			switch r.Intn(10) {
			case 0, 1, 2:
				op = "Get"
				c.Get(pos, func([]byte, error) {})
			case 3, 4:
				op = "Prefetch"
				c.Prefetch(world.ChunksWithin(pos.Origin(), 16*r.Intn(3)))
			case 5:
				op = "Put"
				c.Put(pos, []byte(data))
				last[pos] = data
			case 6:
				op = "PutThen"
				c.PutThen(pos, []byte(data), func() {})
				last[pos] = data
			case 7:
				op = "Flush"
				c.Flush()
			default:
				op = "advance"
				loop.RunUntil(loop.Now() + time.Duration(r.Intn(40))*time.Millisecond)
			}
			check(step, op)
		}
		loop.Run()
		check(2000, "drain")
		for x := 0; x < side; x++ {
			for z := 0; z < side; z++ {
				if prev[x][z] == Pending {
					t.Fatalf("seed %d: chunk(%d,%d) still pending after the loop drained", seed, x, z)
				}
			}
		}

		remote.SetChaos(nil)
		c.Flush()
		loop.Run()
		if n := c.DirtyLen(); n != 0 {
			t.Fatalf("seed %d: %d chunks dirty after a fault-free flush", seed, n)
		}
		for x := 0; x < side; x++ {
			for z := 0; z < side; z++ {
				pos := world.ChunkPos{X: x, Z: z}
				want, written := last[pos]
				if !written {
					want = "remote"
				}
				if c.Status(pos) != Local {
					if written {
						t.Fatalf("seed %d: written chunk(%d,%d) has status %d", seed, x, z, c.Status(pos))
					}
					continue
				}
				var served, stored []byte
				c.Get(pos, func(data []byte, _ error) { served = data })
				remote.Get(Key(pos), func(data []byte, _ error) { stored = data })
				loop.Run()
				if string(served) != want || string(stored) != want {
					t.Fatalf("seed %d: chunk(%d,%d) serves %q, remote holds %q; want %q", seed, x, z, served, stored, want)
				}
			}
		}
	}
}

func TestRetrievalLatencyRecorded(t *testing.T) {
	loop, remote, c := newFixture(8)
	pos := world.ChunkPos{X: 0, Z: 1}
	seedRemote(loop, remote, pos, []byte("d"))
	c.Get(pos, func([]byte, error) {})
	loop.Run()
	c.Get(pos, func([]byte, error) {})
	loop.Run()
	if c.RetrievalLatency.Len() != 2 {
		t.Fatalf("latency samples = %d, want 2", c.RetrievalLatency.Len())
	}
	// The miss (first) must be slower than the hit (second).
	vals := c.RetrievalLatency.Values()
	if vals[0] <= vals[1] {
		t.Fatalf("miss latency %v not above hit latency %v", vals[0], vals[1])
	}
}

func TestCacheReducesTailLatency(t *testing.T) {
	// The headline §IV-F result: with prefetching, the p99.9 retrieval
	// latency drops far below the uncached remote p99.9.
	loop := sim.NewLoop(9)
	remote := blob.NewStore(loop, blob.TierPremium)
	// Populate 3000 chunks remotely.
	var positions []world.ChunkPos
	for i := 0; i < 3000; i++ {
		pos := world.ChunkPos{X: i % 100, Z: i / 100}
		positions = append(positions, pos)
		remote.Put(Key(pos), []byte("chunk"), nil)
	}
	loop.Run()

	uncached := blob.NewStore(loop, blob.TierPremium)
	for _, pos := range positions {
		uncached.Put(Key(pos), []byte("chunk"), nil)
	}
	loop.Run()

	c := New(loop, remote, DefaultConfig())
	var cachedLat, rawLat []time.Duration
	for _, pos := range positions {
		// Prefetch a little ahead of the read stream, as the real
		// policy does, then read with a delay that gives prefetch
		// time to land.
		pos := pos
		c.Prefetch([]world.ChunkPos{pos})
		loop.After(2*time.Second, func() {
			start := loop.Now()
			c.Get(pos, func([]byte, error) { cachedLat = append(cachedLat, loop.Now()-start) })
			rawStart := loop.Now()
			uncached.Get(Key(pos), func([]byte, error) { rawLat = append(rawLat, loop.Now()-rawStart) })
		})
		loop.RunUntil(loop.Now() + 50*time.Millisecond)
	}
	loop.Run()

	p999 := func(lats []time.Duration) time.Duration {
		s := sortedCopy(lats)
		return s[len(s)*999/1000]
	}
	cp, rp := p999(cachedLat), p999(rawLat)
	if cp >= rp/3 {
		t.Fatalf("cached p99.9 = %v, uncached = %v: cache must cut the tail ≥ 3×", cp, rp)
	}
	if cp > 40*time.Millisecond {
		t.Fatalf("cached p99.9 = %v, want ≤ ~34ms (paper anchor)", cp)
	}
}

func sortedCopy(in []time.Duration) []time.Duration {
	out := make([]time.Duration, len(in))
	copy(out, in)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DirtyLen returns the number of chunks awaiting write-back.
func (c *Cache) DirtyLen() int {
	n := 0
	for _, e := range c.known.All() {
		if e.dirty {
			n++
		}
	}
	return n
}
