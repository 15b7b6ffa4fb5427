// Package tgen implements Servo's serverless terrain generation (paper
// §III-D): every chunk that players approach is generated by its own FaaS
// invocation. Because all invocations run concurrently on the platform,
// generation throughput scales with demand — the property that lets Servo
// hold the full view distance in Fig. 10 while the baseline's local worker
// pool falls behind.
//
// Generation is deterministic in (seed, position): the function's output is
// bit-identical to what the server would have generated locally, so the
// offload is invisible to clients (requirement R4). The function's reply is
// the chunk's encoding as the generator writes it
// (terrain.Generator.AppendEncoded): the handler builds no chunk, and the
// backend seals the generated chunk with the reply, which storage and the
// dedup cache then share.
package tgen

import (
	"encoding/binary"
	"errors"

	"servo/internal/faas"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// FunctionName is the default deployment name of the generation function.
const FunctionName = "generate-terrain"

// AppendRequest serialises a generation request — the chunk position —
// appending to dst and returning the extended slice; with a reused scratch
// buffer it is allocation-free. The PRNG seed is baked into the deployed
// function (paper §III-D passes seed and coordinates; a fixed seed per
// deployment is equivalent and avoids re-shipping it).
func AppendRequest(dst []byte, pos world.ChunkPos) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(pos.X)))
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(pos.Z)))
}

// requestLen is the length of an encoded generation request.
const requestLen = 8

// DecodeRequest parses a generation request: exactly requestLen bytes, so
// a truncated request and one with trailing bytes are both refused.
func DecodeRequest(buf []byte) (world.ChunkPos, error) {
	if len(buf) != requestLen {
		return world.ChunkPos{}, errors.New("tgen: request is not 8 bytes")
	}
	return world.ChunkPos{
		X: int(int32(binary.LittleEndian.Uint32(buf))),
		Z: int(int32(binary.LittleEndian.Uint32(buf[4:]))),
	}, nil
}

// HandlerStats counts handler-side anomalies, shared across every
// invocation of one deployment (the simulated platform runs handlers in
// deterministic serial order, so a plain counter is safe).
type HandlerStats struct {
	// badRequests counts undecodable generation requests — previously
	// swallowed as a silent 1-work-unit nil response; always zero in
	// healthy runs.
	badRequests int
}

// NewHandler returns the FaaS handler body for terrain generation: decode
// the position and return the chunk's encoding, which the generator writes
// directly (terrain.Generator.AppendEncoded: no chunk is built). The
// reported work units are the generator's per-chunk work, which (with the
// memory configuration) determines the invocation latency of Fig. 11.
// Malformed requests are tallied in stats (if non-nil) instead of
// vanishing into a nil response.
func NewHandler(gen terrain.Generator, stats *HandlerStats) faas.Handler {
	return func(payload []byte) ([]byte, int) {
		pos, err := DecodeRequest(payload)
		if err != nil {
			if stats != nil {
				stats.badRequests++
			}
			return nil, 1
		}
		// The response outlives this call — the backend keeps it as the
		// generated chunk's encoding, the very bytes storage then holds —
		// so it is the invocation's one allocation, at its final size.
		return gen.AppendEncoded(nil, pos), gen.WorkUnits()
	}
}

// Register deploys the generation function on the platform, with a
// handler-side anomaly counter (stats may be nil).
func Register(p *faas.Platform, gen terrain.Generator, cfg faas.Config, stats *HandlerStats) *faas.Function {
	return p.Register(FunctionName, cfg, NewHandler(gen, stats))
}

// Invoker abstracts function invocation; it is satisfied by
// *faas.Platform and by the cluster's lane-commit wrapper (submissions
// from a shard lane are deferred to the post-wave drain so the shared
// platform sees them in deterministic order).
type Invoker interface {
	Invoke(name string, payload []byte, cb func(faas.Invocation))
}

// DefaultMaxInflight bounds concurrent generation invocations per backend.
// The paper's pitch is that all requests *can* run concurrently; bounding
// the window and dispatching nearest-player-first keeps a cold-terrain
// storm from submitting thousands of invocations in one tick while still
// saturating the platform — the chunks players are about to see go first,
// and the window refills as invocations complete.
const DefaultMaxInflight = 256

// genReq is one outstanding invocation's state: the request payload must
// stay valid until the (possibly commit-deferred) Invoke consumes it, and
// the per-request callback closure is reused across retries and freelist
// recycling, so steady-state dispatch allocates nothing.
type genReq struct {
	pos     world.ChunkPos
	payload []byte
	cb      func(inv faas.Invocation)
}

// Backend is the mve.TerrainBackend that fans generation out to FaaS.
type Backend struct {
	platform Invoker
	fnName   string

	maxInflight int
	inflight    int
	// queue holds positions awaiting an inflight slot; dispatch pulls the
	// nearest-to-a-player entry first ((X, Z) tiebreak, deterministic).
	queue   []world.ChunkPos
	reqFree []*genReq
	focus   []world.BlockPos

	done []*world.Chunk
	pool *world.ChunkPool

	// Cross-shard dedup (UseDedup): adoption checks are queued on the
	// shard's lane and resolved through the commit buffer, so the shared
	// cache is only ever read and written in serial context — in lane
	// order, byte-identical at every worker-pool size.
	clock       sim.Clock
	dedup       *GenCache
	adoptQueue  []world.ChunkPos
	adoptQueued bool
	adoptFn     func()

	// Failures counts invocations that returned errors or undecodable
	// chunks (left visible for experiment sanity checks).
	Failures int
	// decodeErrors counts the corruption guard's refusals: malformed
	// generation replies (a subset of Failures) and undecodable bytes in
	// the dedup cache. Either way the chunk is generated again.
	decodeErrors int
	// GenDeduped counts chunks adopted from the cross-shard cache instead
	// of re-invoking FaaS.
	GenDeduped int
}

// NewBackend returns a serverless terrain backend invoking the named
// function.
func NewBackend(platform Invoker, fnName string) *Backend {
	b := &Backend{
		platform:    platform,
		fnName:      fnName,
		maxInflight: DefaultMaxInflight,
	}
	b.adoptFn = b.drainAdoptions
	return b
}

// SetMaxInflight bounds the concurrent-invocation window (n <= 0 restores
// the default).
func (b *Backend) SetMaxInflight(n int) {
	if n <= 0 {
		n = DefaultMaxInflight
	}
	b.maxInflight = n
}

// UseChunkPool makes the backend decode generated chunks into recycled
// chunks from p (typically the owning shard's pool).
func (b *Backend) UseChunkPool(p *world.ChunkPool) { b.pool = p }

// UseDedup attaches the shared cross-shard generation cache. clock must be
// the owning shard's clock: adoption runs through its commit buffer so
// cache access stays in deterministic serial order.
func (b *Backend) UseDedup(clock sim.Clock, cache *GenCache) {
	b.clock = clock
	b.dedup = cache
}

// SetFocus implements mve.TerrainFocus: the positions dispatch should
// serve first. The slice is copied (the server hands over a reused
// scratch buffer).
func (b *Backend) SetFocus(positions []world.BlockPos) {
	b.focus = append(b.focus[:0], positions...)
}

// Request implements mve.TerrainBackend. With a dedup cache attached the
// position first takes a commit-buffered trip through the shared cache —
// a seam chunk a neighbouring shard just generated is adopted without an
// invocation; otherwise it joins the bounded nearest-player-first
// dispatch queue. It does not de-duplicate: the server asks once per
// position until the chunk is drained (see mve.TerrainBackend).
func (b *Backend) Request(pos world.ChunkPos) {
	if b.dedup != nil {
		b.adoptQueue = append(b.adoptQueue, pos)
		if !b.adoptQueued {
			b.adoptQueued = true
			sim.Commit(b.clock, b.adoptFn)
		}
		return
	}
	b.queue = append(b.queue, pos)
	b.dispatch()
}

// drainAdoptions resolves queued positions against the shared cache
// (serial context): hits seal pooled chunks with the shared bytes and
// complete without an invocation; misses fall through to the dispatch
// queue.
func (b *Backend) drainAdoptions() {
	b.adoptQueued = false
	for i, pos := range b.adoptQueue {
		b.adoptQueue[i] = world.ChunkPos{}
		if data := b.dedup.Lookup(pos); data != nil {
			c := b.pool.Get(pos)
			if err := c.LoadEncoded(data); err == nil {
				b.GenDeduped++
				b.done = append(b.done, c)
				continue
			}
			// Cache held undecodable bytes: count it and regenerate.
			b.pool.Put(c)
			b.decodeErrors++
		}
		b.queue = append(b.queue, pos)
	}
	b.adoptQueue = b.adoptQueue[:0]
	b.dispatch()
}

// dispatch fills free inflight slots with the queued positions nearest to
// a focus avatar (all-equal without focus, falling back to (X, Z) order).
func (b *Backend) dispatch() {
	for b.inflight < b.maxInflight && len(b.queue) > 0 {
		i := b.nearestQueued()
		pos := b.queue[i]
		last := len(b.queue) - 1
		b.queue[i] = b.queue[last]
		b.queue[last] = world.ChunkPos{}
		b.queue = b.queue[:last]
		b.inflight++
		b.invoke(b.newReq(pos))
	}
}

// nearestQueued returns the index of the queued position with the
// smallest Chebyshev block distance to any focus avatar, ties broken by
// (X, Z) — a deterministic selection regardless of queue layout.
func (b *Backend) nearestQueued() int {
	best, bestD := 0, -1
	for i, pos := range b.queue {
		d := 0
		if len(b.focus) > 0 {
			d = int(^uint(0) >> 1)
			for _, f := range b.focus {
				if dd := pos.DistanceBlocks(f); dd < d {
					d = dd
				}
			}
		}
		if bestD == -1 || d < bestD {
			best, bestD = i, d
			continue
		}
		if d == bestD {
			bp, qp := b.queue[best], pos
			if qp.X < bp.X || (qp.X == bp.X && qp.Z < bp.Z) {
				best = i
			}
		}
	}
	return best
}

func (b *Backend) newReq(pos world.ChunkPos) *genReq {
	var r *genReq
	if n := len(b.reqFree); n > 0 {
		r = b.reqFree[n-1]
		b.reqFree[n-1] = nil
		b.reqFree = b.reqFree[:n-1]
	} else {
		r = &genReq{}
		r.cb = func(inv faas.Invocation) { b.complete(r, inv) }
	}
	r.pos = pos
	return r
}

// invoke issues (or re-issues) the generation invocation for r. The
// payload is encoded into the request's reused buffer; it stays valid
// through a lane-commit-deferred Invoke because the request lives until
// its callback fires.
func (b *Backend) invoke(r *genReq) {
	r.payload = AppendRequest(r.payload[:0], r.pos)
	b.platform.Invoke(b.fnName, r.payload, r.cb)
}

// complete finishes one invocation. Invocation errors are transient
// platform faults (e.g. chaos-injected failures), and so is a reply that
// does not decode; the backend retries both, because the server asks for
// a position only once, so terrain holes heal once the fault passes.
// Retries are paced by the full modelled invocation latency — RTT plus
// the chunk's execution time (~hundreds of ms) — so even a 100%-failure
// window produces a bounded, slow retry stream rather than a hot loop.
func (b *Backend) complete(r *genReq, inv faas.Invocation) {
	if inv.Err != nil {
		b.Failures++
		if errors.Is(inv.Err, faas.ErrInjectedFault) {
			b.invoke(r) // retry in the same inflight slot
			return
		}
		// Permanent error (e.g. missing deployment): give up, as before
		// the chaos layer existed.
		b.release(r)
		return
	}
	pos := r.pos
	c := b.pool.Get(pos)
	// The reply is the chunk's encoding (the handler's AppendEncoded), and
	// nobody writes it again: the chunk is sealed with it, so persisting
	// the chunk stores these bytes, and the dedup cache shares them too.
	if err := c.LoadEncoded(inv.Response); err != nil {
		b.pool.Put(c)
		b.Failures++
		b.decodeErrors++
		b.invoke(r)
		return
	}
	if b.dedup != nil {
		// Publish the encoded reply so bordering shards can adopt the
		// seam chunk instead of re-invoking.
		b.dedup.Publish(pos, inv.Response)
	}
	b.done = append(b.done, c)
	b.release(r)
}

// release frees the request's inflight slot and refills the window.
func (b *Backend) release(r *genReq) {
	b.inflight--
	b.reqFree = append(b.reqFree, r)
	b.dispatch()
}

// DrainAppend implements mve.TerrainBackend; the backend's done list is
// reset in place so its backing array is reused too.
func (b *Backend) DrainAppend(dst []*world.Chunk) []*world.Chunk {
	dst = append(dst, b.done...)
	for i := range b.done {
		b.done[i] = nil
	}
	b.done = b.done[:0]
	return dst
}

// Load implements mve.TerrainBackend. Serverless generation runs off-host:
// no busy local workers, no local queue — the game loop pays only the
// chunk-application cost.
func (b *Backend) Load() (busyWorkers, queued int) { return 0, 0 }

// Inflight returns the number of outstanding generation invocations.
func (b *Backend) Inflight() int { return b.inflight }

// Queued returns the number of positions awaiting an inflight slot.
func (b *Backend) Queued() int { return len(b.queue) }
