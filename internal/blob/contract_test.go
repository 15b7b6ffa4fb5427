package blob_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"servo/internal/core"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/world"
)

// auditSeed seeds the audited system's world.
const auditSeed = 11

// auditReach bounds, in chunks from the origin on each axis, the area the
// audited system's explorer can have touched (a walk to X = 300 blocks plus
// view and prefetch distance), and so the area its cache entries lie in.
const auditReach = 64

// settledExplorer runs a small default world with serverless terrain and
// storage: an explorer walks out of the boot region, the periodic flush
// fires once, and then the shard stops and its cache is flushed and left to
// land, so no entry is awaiting write-back (an entry that still were would
// have no blob object, which storedEncodingErrors reports).
func settledExplorer(t *testing.T) (*sim.Loop, *core.System) {
	t.Helper()
	loop := sim.NewLoop(auditSeed)
	sys := core.New(loop, core.Config{WorldType: "default", Seed: auditSeed, ServerlessTG: true, ServerlessRS: true})
	srv := sys.Cluster.Shard(0)
	p := srv.ConnectAt("explorer", nil, 0, 0)
	srv.Start()
	loop.RunUntil(time.Second)
	p.X = 300
	loop.RunUntil(33 * time.Second) // past the 30 s write-back
	srv.Stop()
	sys.Shards[0].Cache.Flush()
	loop.RunUntil(loop.Now() + 5*time.Second)
	return loop, sys
}

// storedEncodingErrors audits a one-shard system's chunk storage against
// the ownership contract — a blob Put hands its slice over, a Get hands out
// a read-only view — once every cache entry is written back:
//   - every terrain object in the blob store is canonical: it decodes to a
//     chunk whose Encode is those bytes again, and — the explorer edits
//     nothing — that chunk is the world generator's (a holder that
//     scribbled on a shared encoding breaks one or the other);
//   - every terrain-cache entry is its blob object, the same slice (a layer
//     that copied the bytes breaks this), and there is no other entry.
func storedEncodingErrors(loop *sim.Loop, sys *core.System) []string {
	var errs []string
	remote, cache := sys.Remote, sys.Shards[0].Cache
	gen := terrain.ForWorldType("default", auditSeed)
	var keys []string
	for k := range remote.Objects() {
		if strings.HasPrefix(k, "terrain/") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	stored := make(map[world.ChunkPos][]byte, len(keys))
	for _, k := range keys {
		b := remote.Objects()[k]
		c, err := world.DecodeChunk(b)
		switch {
		case err != nil:
			errs = append(errs, fmt.Sprintf("%s does not decode: %v", k, err))
			continue
		case tcache.Key(c.Pos) != k:
			errs = append(errs, fmt.Sprintf("%s holds %v", k, c.Pos))
		case !bytes.Equal(c.Encode(), b):
			errs = append(errs, fmt.Sprintf("%s is not the canonical encoding of its chunk", k))
		case !c.Equal(gen.Generate(c.Pos)):
			errs = append(errs, fmt.Sprintf("%s does not hold the generated terrain", k))
		}
		stored[c.Pos] = b
	}
	entries := map[world.ChunkPos][]byte{}
	for x := -auditReach; x <= auditReach; x++ {
		for z := -auditReach; z <= auditReach; z++ {
			pos := world.ChunkPos{X: x, Z: z}
			if cache.Status(pos) == tcache.Local {
				cache.Get(pos, func(data []byte, _ error) { entries[pos] = data })
			}
		}
	}
	loop.RunUntil(loop.Now() + time.Second)
	for pos, entry := range entries {
		if b, ok := stored[pos]; !ok || len(entry) == 0 || &entry[0] != &b[0] {
			errs = append(errs, fmt.Sprintf("cache entry %v is not its blob object (stored %v)", pos, ok))
		}
	}
	if len(entries) != len(stored) {
		errs = append(errs, fmt.Sprintf("%d cache entries for %d stored chunks", len(entries), len(stored)))
	}
	return errs
}

// TestStoredEncodingsAreCanonicalAndShared enforces the storage contract on
// a live system: with no copies left in blob, a mutated or copied encoding
// would otherwise go unnoticed.
func TestStoredEncodingsAreCanonicalAndShared(t *testing.T) {
	loop, sys := settledExplorer(t)
	if n := len(sys.Remote.Objects()); n < 100 {
		t.Fatalf("only %d objects stored; the explorer did not reach fresh terrain", n)
	}
	t.Logf("auditing %d stored objects", len(sys.Remote.Objects()))
	for _, e := range storedEncodingErrors(loop, sys) {
		t.Error(e)
	}
}

// TestStoredEncodingAuditCatchesMutation: a receiver that writes one byte
// of a Get result writes the stored object, and the audit above sees it.
func TestStoredEncodingAuditCatchesMutation(t *testing.T) {
	loop, sys := settledExplorer(t)
	var data []byte
	sys.Remote.Get(tcache.Key(world.ChunkPos{X: 18, Z: 0}), func(d []byte, err error) {
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		data = d
	})
	loop.RunUntil(loop.Now() + time.Second)
	data[len(data)-1] ^= 0xff
	errs := storedEncodingErrors(loop, sys)
	if len(errs) == 0 {
		t.Fatal("the audit missed a mutated Get result")
	}
	t.Log(errs)
}
