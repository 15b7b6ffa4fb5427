package tgen

import (
	"bytes"
	"testing"
	"time"

	"servo/internal/blob"
	"servo/internal/faas"
	"servo/internal/mve"
	"servo/internal/servo/rstore"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

func fastFnConfig() faas.Config {
	return faas.Config{
		MemoryMB:      faas.FullVCPUMemMB,
		ColdStart:     fixed(0),
		NetRTT:        fixed(10 * time.Millisecond),
		KeepAlive:     fixed(time.Hour),
		NsPerWorkUnit: time.Microsecond,
		ParallelFrac:  0.85,
	}
}

func TestRequestGeneratesCorrectChunk(t *testing.T) {
	loop := sim.NewLoop(1)
	p := faas.NewPlatform(loop)
	gen := terrain.Default{Seed: 42}
	Register(p, gen, fastFnConfig(), nil)
	b := NewBackend(p, FunctionName)

	pos := world.ChunkPos{X: 3, Z: -4}
	b.Request(pos)
	loop.Run()
	got := b.DrainAppend(nil)
	if len(got) != 1 {
		t.Fatalf("drained %d chunks, want 1", len(got))
	}
	// Bit-identical to local generation (requirement R4).
	if !got[0].Equal(gen.Generate(pos)) {
		t.Fatal("function-generated chunk differs from local generation")
	}
	if b.Failures != 0 {
		t.Fatalf("failures = %d", b.Failures)
	}
}

// countingBackend counts the requests that reach a Backend per position.
type countingBackend struct {
	*Backend
	requests map[world.ChunkPos]int
}

func (c *countingBackend) Request(pos world.ChunkPos) {
	c.requests[pos]++
	c.Backend.Request(pos)
}

// TestRequestDeduplicatesInflight: the backend queues every request it gets,
// so duplicates are kept from it by the server in front of it. Two players
// with overlapping views stand still while every invocation stays in flight
// over several demand scans; each position must still be requested and
// invoked once, and delivered.
func TestRequestDeduplicatesInflight(t *testing.T) {
	loop := sim.NewLoop(2)
	p := faas.NewPlatform(loop)
	cfg := fastFnConfig()
	cfg.NetRTT = fixed(3 * time.Second)
	fn := Register(p, terrain.Flat{}, cfg, nil)
	b := &countingBackend{Backend: NewBackend(p, FunctionName), requests: map[world.ChunkPos]int{}}
	const view = 48
	s := mve.NewServer(loop, mve.Config{WorldType: "flat", Seed: 2, ViewDistance: view, Terrain: b})
	p0 := s.ConnectAt("p0", nil, 1000, 0)
	p1 := s.ConnectAt("p1", nil, 1040, -24)
	s.Start()
	loop.RunUntil(loop.Now() + 2*time.Second)
	if b.Inflight() == 0 {
		t.Fatal("nothing in flight after two seconds; invocations are too fast to span scans")
	}
	loop.RunUntil(loop.Now() + 10*time.Second)
	if b.Inflight() != 0 || b.Queued() != 0 {
		t.Fatalf("inflight %d, queued %d after the run, want 0", b.Inflight(), b.Queued())
	}
	for _, pl := range []*mve.Player{p0, p1} {
		for _, cp := range world.ChunksWithin(pl.Pos(), view) {
			if !s.World().Loaded(cp) {
				t.Fatalf("%v in view not loaded", cp)
			}
			if b.requests[cp] != 1 {
				t.Fatalf("%v requested %d times, want 1", cp, b.requests[cp])
			}
		}
	}
	for cp, n := range b.requests {
		if n != 1 {
			t.Fatalf("%v requested %d times, want 1", cp, n)
		}
	}
	if got := fn.Invocations.Count(); got != len(b.requests) {
		t.Fatalf("invocations = %d for %d positions, want one each", got, len(b.requests))
	}
}

func TestConcurrentFanOut(t *testing.T) {
	// §III-D: "all generation requests can be invoked concurrently" — N
	// requests complete in roughly the time of one, not N.
	loop := sim.NewLoop(3)
	p := faas.NewPlatform(loop)
	cfg := fastFnConfig()
	cfg.NsPerWorkUnit = 40 * time.Microsecond // ~512ms per default chunk
	Register(p, terrain.Default{Seed: 1}, cfg, nil)
	b := NewBackend(p, FunctionName)
	start := loop.Now()
	for i := 0; i < 50; i++ {
		b.Request(world.ChunkPos{X: i, Z: 0})
	}
	loop.Run()
	elapsed := loop.Now() - start
	if got := len(b.DrainAppend(nil)); got != 50 {
		t.Fatalf("completed %d/50", got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("50 concurrent generations took %v, want ~one generation time", elapsed)
	}
}

func TestUnknownFunctionCountsFailure(t *testing.T) {
	loop := sim.NewLoop(4)
	p := faas.NewPlatform(loop)
	b := NewBackend(p, "missing")
	b.Request(world.ChunkPos{})
	loop.Run()
	if b.Failures != 1 {
		t.Fatalf("failures = %d, want 1", b.Failures)
	}
	if len(b.DrainAppend(nil)) != 0 {
		t.Fatal("failed request must not produce a chunk")
	}
}

func TestRequestCodec(t *testing.T) {
	for _, pos := range []world.ChunkPos{{X: 0, Z: 0}, {X: -100, Z: 100}, {X: 1 << 20, Z: -(1 << 20)}} {
		got, err := DecodeRequest(AppendRequest(nil, pos))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != pos {
			t.Fatalf("round trip %v → %v", pos, got)
		}
	}
	if _, err := DecodeRequest([]byte{1}); err == nil {
		t.Fatal("truncated request accepted")
	}
}

// FuzzDecodeRequest feeds DecodeRequest arbitrary payloads. It must not
// panic, whatever decodes must re-encode to the payload and decode back to
// the same position, and the handler must count what does not decode as a
// bad request and generate what does. The reply is a chunk encoding, which
// FuzzDecodeChunk (internal/world) covers. The seeds are requests as the
// backend sends them and the files under testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	for _, pos := range []world.ChunkPos{{}, {X: -100, Z: 100}, {X: 1 << 20, Z: -(1 << 20)}} {
		f.Add(AppendRequest(nil, pos))
	}
	var stats HandlerStats
	h := NewHandler(terrain.Flat{}, &stats)
	f.Fuzz(func(t *testing.T, data []byte) {
		bad := stats.badRequests
		reply, _ := h(data)
		pos, err := DecodeRequest(data)
		if err != nil {
			if reply != nil || stats.badRequests != bad+1 {
				t.Fatalf("undecodable request %x: reply of %d bytes, %d bad requests counted", data, len(reply), stats.badRequests-bad)
			}
			return
		}
		if got := AppendRequest(nil, pos); !bytes.Equal(got, data) {
			t.Fatalf("request %x decodes to %v, which re-encodes to %x", data, pos, got)
		}
		if again, err := DecodeRequest(AppendRequest(nil, pos)); err != nil || again != pos {
			t.Fatalf("%v round-trips to %v (%v)", pos, again, err)
		}
		c, err := world.DecodeChunk(reply)
		if err != nil || c.Pos != pos || stats.badRequests != bad {
			t.Fatalf("request for %v: reply decodes to %v (%v), %d bad requests counted", pos, c, err, stats.badRequests-bad)
		}
	})
}

func TestHandlerRejectsGarbage(t *testing.T) {
	h := NewHandler(terrain.Flat{}, nil)
	resp, work := h([]byte{1, 2})
	if resp != nil || work != 1 {
		t.Fatal("handler must fail cleanly on truncated input")
	}
}

// TestHandlerSteadyStateAllocatesItsReply: the handler builds no chunk —
// the generator writes the encoding straight into the reply — so an
// invocation allocates exactly the reply it returns, and the reply is what
// a chunk generated at that position encodes to, with its work units.
func TestHandlerSteadyStateAllocatesItsReply(t *testing.T) {
	gen := terrain.Default{Seed: 42}
	h := NewHandler(gen, nil)
	var reqs [][]byte
	for x := -4; x < 4; x++ {
		for z := -4; z < 4; z++ {
			reqs = append(reqs, AppendRequest(nil, world.ChunkPos{X: x, Z: z}))
		}
	}
	for _, req := range reqs {
		h(req)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(reqs), func() {
		h(reqs[i%len(reqs)])
		i++
	})
	if allocs != 1 {
		t.Fatalf("a steady-state invocation allocates %.1f objects, want 1 (its reply)", allocs)
	}
	for _, req := range reqs[:8] {
		pos, _ := DecodeRequest(req)
		resp, work := h(req)
		if want := gen.Generate(pos); !bytes.Equal(resp, want.Encode()) || work != want.GenWork {
			t.Fatalf("reply for %v differs from a fresh chunk's encoding", pos)
		}
	}
}

// TestDecodeGuardRefusesAndRegenerates: the backend refuses bytes that do
// not decode as a chunk, from a FaaS reply or from the dedup cache, counts
// each refusal, and generates the chunk again — the server asks for a
// position only once, so a dropped request would leave a hole for good.
func TestDecodeGuardRefusesAndRegenerates(t *testing.T) {
	gen := terrain.Default{Seed: 42}
	pos := world.ChunkPos{X: 3, Z: -4}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, tc := range []struct {
		name                    string
		corruptReply, seedCache bool
		invocations             int
	}{
		{name: "malformed reply", corruptReply: true, invocations: 2},
		{name: "undecodable cache entry", seedCache: true, invocations: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop(4)
			p := faas.NewPlatform(loop)
			Register(p, gen, fastFnConfig(), nil)
			invocations := 0
			b := NewBackend(invokerFunc(func(name string, payload []byte, cb func(faas.Invocation)) {
				invocations++
				corrupt := tc.corruptReply && invocations == 1
				p.Invoke(name, payload, func(inv faas.Invocation) {
					if corrupt {
						inv.Response = garbage
					}
					cb(inv)
				})
			}), FunctionName)
			if tc.seedCache {
				cache := NewGenCache()
				cache.Publish(pos, garbage)
				b.UseDedup(loop, cache)
			}
			b.Request(pos)
			loop.Run()
			got := b.DrainAppend(nil)
			if len(got) != 1 || !got[0].Equal(gen.Generate(pos)) {
				t.Fatalf("drained %d chunks, want the one generated chunk", len(got))
			}
			if b.decodeErrors != 1 {
				t.Fatalf("decode errors = %d, want 1", b.decodeErrors)
			}
			if invocations != tc.invocations {
				t.Fatalf("invocations = %d, want %d", invocations, tc.invocations)
			}
			if b.Inflight() != 0 || b.Queued() != 0 {
				t.Fatalf("backend still holds %d inflight, %d queued", b.Inflight(), b.Queued())
			}
		})
	}
}

// TestRegenerationRepairsTheDedupCache: two backends share a cache that
// holds undecodable bytes for a position. The first refuses them, counts
// one decode error and generates the chunk; its publication replaces the
// bad bytes, so the second adopts the good ones with no decode error and
// no invocation.
func TestRegenerationRepairsTheDedupCache(t *testing.T) {
	gen := terrain.Default{Seed: 42}
	pos := world.ChunkPos{X: 3, Z: -4}
	loop := sim.NewLoop(5)
	p := faas.NewPlatform(loop)
	Register(p, gen, fastFnConfig(), nil)
	cache := NewGenCache()
	cache.Publish(pos, []byte{0xba, 0xd0, 0x0d})
	var invocations [2]int
	var backends [2]*Backend
	for i := range backends {
		backends[i] = NewBackend(invokerFunc(func(name string, payload []byte, cb func(faas.Invocation)) {
			invocations[i]++
			p.Invoke(name, payload, cb)
		}), FunctionName)
		backends[i].UseDedup(loop, cache)
	}
	for i, want := range []struct{ decodeErrors, invocations, deduped int }{{1, 1, 0}, {0, 0, 1}} {
		b := backends[i]
		b.Request(pos)
		loop.Run()
		got := b.DrainAppend(nil)
		if len(got) != 1 || !got[0].Equal(gen.Generate(pos)) {
			t.Fatalf("backend %d drained %d chunks, want the one generated chunk", i, len(got))
		}
		if b.decodeErrors != want.decodeErrors || invocations[i] != want.invocations || b.GenDeduped != want.deduped {
			t.Fatalf("backend %d: %d decode errors, %d invocations, %d adopted; want %d, %d, %d", i,
				b.decodeErrors, invocations[i], b.GenDeduped, want.decodeErrors, want.invocations, want.deduped)
		}
	}
}

// invokerFunc adapts a function to the Invoker interface.
type invokerFunc func(name string, payload []byte, cb func(faas.Invocation))

func (f invokerFunc) Invoke(name string, payload []byte, cb func(faas.Invocation)) {
	f(name, payload, cb)
}

// sameBytes reports whether a and b are one slice in memory, not merely
// equal bytes.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestReplyIsTheStoredEncoding: one encoding per chunk version. The FaaS
// reply becomes the generated chunk's encoding, storing the chunk hands
// that very slice to the terrain cache and, on flush, to the blob store,
// and the chunk's first change of content drops it.
func TestReplyIsTheStoredEncoding(t *testing.T) {
	loop := sim.NewLoop(3)
	p := faas.NewPlatform(loop)
	Register(p, terrain.Default{Seed: 42}, fastFnConfig(), nil)
	var reply []byte
	b := NewBackend(invokerFunc(func(name string, payload []byte, cb func(faas.Invocation)) {
		p.Invoke(name, payload, func(inv faas.Invocation) {
			reply = inv.Response
			cb(inv)
		})
	}), FunctionName)
	b.Request(world.ChunkPos{X: 3, Z: -4})
	loop.Run()
	c := b.DrainAppend(nil)[0]
	if !sameBytes(c.Encoded(), reply) {
		t.Fatal("the generated chunk does not keep the reply it was loaded from")
	}

	remote := blob.NewStore(loop, blob.TierPremium)
	cache := tcache.New(loop, remote, tcache.DefaultConfig())
	rstore.New(cache).Store(c)
	cache.Flush()
	loop.Run()
	var cached, stored []byte
	cache.Get(c.Pos, func(data []byte, _ error) { cached = data })
	remote.Get(tcache.Key(c.Pos), func(data []byte, _ error) { stored = data })
	loop.Run()
	if !sameBytes(cached, reply) || !sameBytes(stored, reply) {
		t.Fatalf("stored a copy of the reply: cache shares it %v, blob shares it %v",
			sameBytes(cached, reply), sameBytes(stored, reply))
	}

	c.Set(0, world.ChunkSizeY-1, 0, world.Block{ID: world.Stone})
	enc := c.Encoded()
	if sameBytes(enc, reply) {
		t.Fatal("a changed chunk still holds the reply it was loaded from")
	}
	if d, err := world.DecodeChunk(enc); err != nil || !d.Equal(c) {
		t.Fatalf("the changed chunk's encoding does not decode to it (%v)", err)
	}
}

// fixed is a latency distribution that always returns d: a uniform one of
// zero width.
func fixed(d time.Duration) sim.Dist { return sim.Uniform{Low: d, High: d} }
