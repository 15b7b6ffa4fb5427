// Package tcache implements Servo's terrain cache (paper §III-E): a local
// cache in front of serverless storage, with distance-based pre-fetching,
// that hides the latency and performance variability of managed storage
// from the game loop.
//
// Layering (top to bottom):
//
//	game server (decoded chunks in the world)
//	  └─ tcache: local file-system cache of encoded chunks  ← this package
//	       └─ blob.Store: serverless storage (remote, variable latency)
//
// Reads that hit the local cache cost a local-disk read; misses pay the
// remote latency. The pre-fetcher pulls chunks "outside of, but close to,
// the player's view distance" into the local cache before they are needed,
// so that by the time the game requests them they are local. Writes land
// in the local cache immediately and are flushed to remote storage
// periodically (paper: "writes to remote storage are performed
// periodically").
package tcache

import (
	"cmp"
	"slices"
	"time"

	"servo/internal/blob"
	"servo/internal/metrics"
	"servo/internal/sim"
	"servo/internal/world"
)

// Config tunes the cache.
type Config struct {
	// LocalRead is the latency distribution of a local cache hit
	// (local-disk read of an encoded chunk).
	LocalRead sim.Dist
	// FlushInterval is the period of write-back to remote storage.
	FlushInterval time.Duration
	// PrefetchBudget caps how many remote fetches one Prefetch call may
	// start (0 = unlimited). A bounded budget keeps pre-fetching from
	// saturating storage bandwidth, at the cost of occasional demand
	// misses when players out-run the prefetcher — the residual tail the
	// paper observes on the cached configuration (§IV-F: cached p99 is
	// comparable to uncached, p99.9 is 34 ms).
	PrefetchBudget int
}

// DefaultConfig matches the §IV-F experiment setup: ~1 ms local reads and a
// 30-second write-back period.
func DefaultConfig() Config {
	return Config{
		LocalRead:      sim.LogNormal{Scale: time.Millisecond, Mu: 0.0, Sigma: 0.45},
		FlushInterval:  30 * time.Second,
		PrefetchBudget: 64,
	}
}

// Status is what the cache knows about one chunk position.
type Status uint8

const (
	// Unknown: never asked about; the only status Prefetch acts on.
	Unknown Status = iota
	// Pending: a remote read is in flight.
	Pending
	// Local: the encoded chunk is in the local cache.
	Local
	// Absent: remote storage answered not-found and nothing has been
	// written here since.
	Absent
)

// Cache is a write-back terrain cache bound to a clock and a remote store.
//
// Invariant (status is monotone until forgotten): a position's record
// moves through state Unknown → Pending → Local or Absent, and Absent →
// Local on Put/PutThen. Only ForgetWhere returns it to Unknown: otherwise
// a record is never deleted, Absent is only ever replaced by Local, and
// fetch (GetRetrying) ends in data or not-found. A Put may land on a
// Pending record (it becomes Local, and the read's waiters get the newer
// bytes when it lands). rstore's avatar observer leans on this: an area it
// has seen free of Unknown positions can never need a prefetch again, so
// it stops looking — and rstore.Store.ForgetWhere, the one caller of
// ForgetWhere, clears that observer's settled set whenever ForgetWhere
// reports a record returned to Unknown.
type Cache struct {
	clock  sim.Clock
	remote *blob.Store
	cfg    Config

	// known holds one record per position the cache has been asked about.
	known world.ChunkMap[world.ChunkPos, entry]
	// waiters holds the callbacks of each remote read in flight; a
	// position leaves it when its read lands.
	waiters world.ChunkMap[world.ChunkPos, []func(data []byte, err error)]
	// reread holds positions whose read in flight was forgotten: the
	// object it captured may predate a write that landed since, so its
	// answer is dropped and storage read again for the same waiters.
	reread world.ChunkMap[world.ChunkPos, struct{}]

	// RetrievalLatency records the end-to-end chunk retrieval latency as
	// observed by the game server — the metric of Fig. 13.
	RetrievalLatency metrics.Sample
	// Hits and Misses count local-cache outcomes for demand reads
	// (prefetches are not counted).
	Hits, Misses metrics.Counter
	// PrefetchIssued counts prefetch fetches sent to remote storage.
	PrefetchIssued metrics.Counter

	flushing bool
	flushGen int // invalidates old flusher closures across stop/start
}

// entry is what the cache holds for one position: its status, the
// encoded chunk while Local, and whether that chunk awaits write-back.
type entry struct {
	data  []byte
	state Status
	dirty bool
}

// New returns a cache in front of remote. Start the periodic write-back
// with StartFlusher (experiments without write traffic may skip it).
func New(clock sim.Clock, remote *blob.Store, cfg Config) *Cache {
	return &Cache{clock: clock, remote: remote, cfg: cfg}
}

// Remote returns the backing object store.
func (c *Cache) Remote() *blob.Store { return c.remote }

// Key returns the remote-storage object key for a chunk position.
func Key(pos world.ChunkPos) string {
	return "terrain/" + pos.String()
}

// Get retrieves the encoded chunk at pos, from the local cache if present,
// otherwise from remote storage (populating the local cache). The observed
// latency is recorded in RetrievalLatency. Concurrent Gets and prefetches
// of the same chunk coalesce into a single remote read.
func (c *Cache) Get(pos world.ChunkPos, cb func(data []byte, err error)) {
	start := c.clock.Now()
	done := func(data []byte, err error) {
		if err == nil {
			// Only successful retrievals enter the Fig. 13 metric;
			// not-found lookups fall through to terrain generation.
			c.RetrievalLatency.Add(c.clock.Now() - start)
		}
		cb(data, err)
	}
	switch e, _ := c.known.Get(pos); e.state {
	case Local:
		c.Hits.Inc()
		lat := c.cfg.LocalRead.Sample(c.clock.RNG())
		c.clock.After(lat, func() { done(e.data, nil) })
	case Absent:
		// Known missing: answer from local knowledge until this cache's
		// own Put. Absence is never re-checked: on a sharded system every
		// shard has its own Cache over one remote store, and another
		// shard's write to this position does not clear this Absent.
		lat := c.cfg.LocalRead.Sample(c.clock.RNG())
		c.clock.After(lat, func() { done(nil, blob.ErrNotFound) })
	default:
		c.Misses.Inc()
		c.fetch(pos, done)
	}
}

// fetch joins or starts a remote read for an Unknown or Pending pos.
func (c *Cache) fetch(pos world.ChunkPos, cb func(data []byte, err error)) {
	if ws, inflight := c.waiters.Get(pos); inflight {
		c.waiters.Put(pos, append(ws, cb))
		return
	}
	c.waiters.Put(pos, []func([]byte, error){cb})
	c.known.Put(pos, entry{state: Pending})
	c.read(pos)
}

// read issues the remote read of pos, whose waiters are registered.
// GetRetrying: chaos-injected faults retry inside the store, so a fault
// window never surfaces as a spurious not-found (which would trigger
// destructive regeneration) and never double-counts hits/misses — those
// were tallied once in Get. It ends in data or not-found.
func (c *Cache) read(pos world.ChunkPos) {
	c.remote.GetRetrying(Key(pos), func(data []byte, err error) {
		if _, again := c.reread.Delete(pos); again {
			c.read(pos) // forgotten in flight (ForgetWhere)
			return
		}
		// A local write that raced the fetch wins, whatever the remote
		// answered: it is newer.
		if e, _ := c.known.Get(pos); e.state == Local {
			data, err = e.data, nil
		} else if err == nil {
			c.known.Put(pos, entry{data: data, state: Local})
		} else {
			c.known.Put(pos, entry{state: Absent})
		}
		ws, _ := c.waiters.Delete(pos)
		for _, w := range ws {
			w(data, err)
		}
	})
}

// Status reports what the cache knows about pos.
func (c *Cache) Status(pos world.ChunkPos) Status {
	e, _ := c.known.Get(pos)
	return e.state
}

// PrefetchBudget returns how many fetches one Prefetch call may start
// (0 = unlimited).
func (c *Cache) PrefetchBudget() int { return c.cfg.PrefetchBudget }

// Prefetch starts background fetches for the Unknown positions in the
// list, in order, up to the budget. Completion is not reported; the
// chunks simply appear in the local cache.
func (c *Cache) Prefetch(positions []world.ChunkPos) {
	started := 0
	for _, pos := range positions {
		if c.cfg.PrefetchBudget > 0 && started >= c.cfg.PrefetchBudget {
			return
		}
		if c.Status(pos) != Unknown {
			continue
		}
		started++
		c.PrefetchIssued.Inc()
		c.fetch(pos, func([]byte, error) {})
	}
}

// Put stores the encoded chunk locally and marks it for the next periodic
// flush to remote storage. The cache keeps data itself and the flush hands
// that slice to the blob store, which keeps it too (see blob.Store.Put):
// the caller must not mutate it afterwards.
func (c *Cache) Put(pos world.ChunkPos, data []byte) {
	c.known.Put(pos, entry{data: data, state: Local, dirty: true})
}

// PutThen stores the chunk locally and pushes it to remote storage
// immediately — bypassing the periodic write-back — calling done once
// data for the chunk is durably in remote storage (retrying through
// fault windows; if a newer write for the chunk supersedes this one, done
// transfers to it rather than firing early). Ownership migrations use it
// to gate the ownership flip on the flush, so a brownout delays the
// migration but never loses the chunk.
func (c *Cache) PutThen(pos world.ChunkPos, data []byte, done func()) {
	// This write supersedes any queued write-back of the same chunk.
	c.known.Put(pos, entry{data: data, state: Local})
	c.remote.PutDurablyThen(Key(pos), data, done)
}

// ForgetWhere drops the records of the positions pred matches, Local or
// Absent, so that the next Get of each reads remote storage: a shard that
// gains ownership of chunks calls it, because what it cached as a
// non-owner — read for its view, prefetched, or found absent before the
// owner generated the chunk — may predate the previous owner's writes,
// which reached remote storage before the gain. A read in flight is
// forgotten too: its record stays Pending, and when the read lands its
// answer is dropped and storage read again for the same waiters.
//
// A dirty record stays, with its pending write-back: it is a write this
// cache made while its shard owned the chunk before and has not flushed
// yet, the newest copy this shard holds, so it wins over remote storage
// (the periodic flush writes it over whatever the owners in between
// stored).
//
// ForgetWhere reports whether a record returned to Unknown. A forgotten
// read in flight stays Pending and lands Local or Absent, so when it
// reports false no position needs a prefetch it did not need before.
func (c *Cache) ForgetWhere(pred func(world.ChunkPos) bool) (dropped bool) {
	var drop []world.ChunkPos
	for pos, e := range c.known.All() {
		if !e.dirty && pred(pos) {
			drop = append(drop, pos)
		}
	}
	for _, pos := range drop {
		if _, inflight := c.waiters.Get(pos); inflight {
			c.known.Put(pos, entry{state: Pending})
			c.reread.Put(pos, struct{}{})
		} else {
			c.known.Delete(pos)
			dropped = true
		}
	}
	return dropped
}

// StartFlusher begins the periodic write-back loop.
func (c *Cache) StartFlusher() {
	if c.flushing {
		return
	}
	c.flushing = true
	c.flushGen++
	gen := c.flushGen
	var tick func()
	tick = func() {
		// The generation check retires this closure after StopFlusher
		// even if the flusher was restarted before our pending callback
		// fired — otherwise a stop/start cycle would leave two loops
		// flushing concurrently.
		if !c.flushing || c.flushGen != gen {
			return
		}
		c.Flush()
		c.clock.After(c.cfg.FlushInterval, tick)
	}
	c.clock.After(c.cfg.FlushInterval, tick)
}

// StopFlusher ends the periodic write-back loop after the next scheduled
// tick, releasing the cache for collection. A discarded system (e.g. a
// scenario's prewrite phase) must stop its flushers or their reschedule
// closures pin the whole system in memory for the rest of the run.
func (c *Cache) StopFlusher() { c.flushing = false }

// Flush writes every dirty chunk to remote storage immediately, in (X, Z)
// order, clearing each record's flag. A failed write (e.g. a
// chaos-injected storage fault) sets the flag again so the next flush
// retries it once the fault window passes.
func (c *Cache) Flush() {
	for _, pos := range c.takeDirty(nil) {
		e, _ := c.known.Get(pos)
		// PutLatest: if the chunk is re-flushed before a chaos-slowed
		// write lands, the stale write is dropped instead of reverting
		// the newer data.
		c.remote.PutLatest(Key(pos), e.data, func(err error) {
			if err != nil {
				e, _ := c.known.Get(pos)
				e.dirty = true
				c.known.Put(pos, e)
			}
		})
	}
}

// FlushWhere writes the dirty chunks pred matches to remote storage now,
// in (X, Z) order, clearing their flags, through PutThen's durable path:
// done runs once every write has landed, retrying through fault windows —
// at once when pred matches no dirty chunk. A shard that is about to lose
// chunks to another owner flushes them through it: a chunk its world
// unloaded since its last write has that write only here.
func (c *Cache) FlushWhere(pred func(world.ChunkPos) bool, done func()) {
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	for _, pos := range c.takeDirty(pred) {
		e, _ := c.known.Get(pos)
		pending++
		c.remote.PutDurablyThen(Key(pos), e.data, finish)
	}
	finish()
}

// takeDirty clears the dirty flag of every record pred matches (nil
// matches all) and returns their positions in (X, Z) order. The order
// decides which chunk each of the store's latency and fault draws falls
// on, so it depends only on the set of dirty chunks: the record table's
// own order is deterministic too, but it also follows the table's insert
// and growth history.
func (c *Cache) takeDirty(pred func(world.ChunkPos) bool) []world.ChunkPos {
	var keys []world.ChunkPos
	for pos, e := range c.known.All() {
		if e.dirty && (pred == nil || pred(pos)) {
			keys = append(keys, pos)
		}
	}
	slices.SortFunc(keys, func(a, b world.ChunkPos) int {
		if a.X != b.X {
			return cmp.Compare(a.X, b.X)
		}
		return cmp.Compare(a.Z, b.Z)
	})
	for _, pos := range keys {
		e, _ := c.known.Get(pos)
		e.dirty = false
		c.known.Put(pos, e)
	}
	return keys
}
