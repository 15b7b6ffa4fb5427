package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/blob"
	"servo/internal/core"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
)

// Fig13 (paper §IV-F): terrain-retrieval latency for three storage
// configurations — local disk, serverless storage, and serverless storage
// behind Servo's pre-fetching cache — under an 8-player S3 workload on the
// default world. The paper's curves contain 13k–25k retrievals each.

// StorageConfig names one Fig. 13 curve.
type StorageConfig int

// The three configurations.
const (
	StorageLocal StorageConfig = iota + 1
	StorageServerless
	StorageServerlessCache
)

// String implements fmt.Stringer.
func (c StorageConfig) String() string {
	switch c {
	case StorageLocal:
		return "Local"
	case StorageServerless:
		return "Serverless"
	case StorageServerlessCache:
		return "Serverless+Cache"
	}
	return "unknown"
}

// StorageConfigs lists the curves in presentation order.
var StorageConfigs = []StorageConfig{StorageLocal, StorageServerless, StorageServerlessCache}

// Fig13Report holds the latency distribution per configuration.
type Fig13Report struct {
	Latency map[StorageConfig]*metrics.Sample
}

// ICDFFractions is the log-scale fraction axis of Fig. 13.
var ICDFFractions = []float64{1, 0.5, 0.1, 0.01, 0.001, 0.0001}

// Fig13 measures terrain retrieval latency under the three storage
// configurations. The world is written once (exploration run persists
// terrain), then re-read by a second population re-exploring the same
// area, so retrievals hit storage rather than the generator.
func Fig13(opt Options) *Fig13Report {
	r := &Fig13Report{Latency: make(map[StorageConfig]*metrics.Sample)}
	for _, cfg := range StorageConfigs {
		r.Latency[cfg] = fig13Run(cfg, opt)
		opt.logf("fig13: %s n=%d p99.9=%v", cfg, r.Latency[cfg].Len(), r.Latency[cfg].Percentile(99.9))
	}
	return r
}

// storeLatencyProbe wraps a ChunkStore and records per-load latency as
// observed from the game loop (for configurations whose store does not
// already record it).
type storeLatencyProbe struct {
	inner   mve.ChunkStore
	clock   sim.Clock
	Latency *metrics.Sample
}

var _ mve.ChunkStore = (*storeLatencyProbe)(nil)

func (p *storeLatencyProbe) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	start := p.clock.Now()
	p.inner.Load(pos, func(c *world.Chunk, ok bool) {
		if ok {
			p.Latency.Add(p.clock.Now() - start)
		}
		cb(c, ok)
	})
}

func (p *storeLatencyProbe) Store(c *world.Chunk) { p.inner.Store(c) }

// fig13Run stays Go rather than a scenario cell. Its write phase ends
// with the writers connected and the cache flusher running, where the
// engine's prewrite disconnects the writers and stops the flusher; and
// its uncached curve needs DisableCache and a per-load latency probe,
// neither of which the spec language has.
func fig13Run(cfg StorageConfig, opt Options) *metrics.Sample {
	loop := sim.NewLoop(opt.Seed)
	coreCfg := core.Config{
		Seed:      opt.Seed,
		WorldType: "default",
		Profile:   mve.ProfileServo,
	}
	switch cfg {
	case StorageLocal:
		coreCfg.LocalStore = true
	case StorageServerless:
		coreCfg.ServerlessRS = true
		coreCfg.DisableCache = true
	case StorageServerlessCache:
		coreCfg.ServerlessRS = true
	}
	sys := core.New(loop, coreCfg)

	// Phase 1 (write): 8 star players explore, persisting terrain.
	window := opt.window(10 * time.Minute)
	for i := 0; i < 8; i++ {
		sys.Cluster.Connect(fmt.Sprintf("player-%d", i), &workload.Star{Speed: 3})
	}
	sys.Cluster.Start()
	loop.RunUntil(window)
	sys.Cluster.Stop()
	if ca := sys.Shards[0].Cache; ca != nil {
		ca.Flush()
	}
	loop.RunUntil(loop.Now() + time.Minute)

	// Phase 2 (read): a fresh server over the same storage re-explores
	// the same area (same seed ⇒ same directions), so chunk demand is
	// served from storage.
	sys2 := rebuildOverSameStorage(loop, coreCfg, sys)
	for i := 0; i < 8; i++ {
		sys2.Cluster.Connect(fmt.Sprintf("player-%d", i), &workload.Star{Speed: 3})
	}
	sys2.Cluster.Start()
	loop.RunUntil(loop.Now() + window)
	sys2.Cluster.Stop()

	switch cfg {
	case StorageServerlessCache:
		return &sys2.Shards[0].Cache.RetrievalLatency
	default:
		probe := sys2.Shards[0].Server.Config().Store.(*storeLatencyProbe)
		return probe.Latency
	}
}

// rebuildOverSameStorage builds a second system whose remote store starts
// with the first phase's data (cold local cache, warm remote), wrapping
// non-cache stores in a latency probe.
func rebuildOverSameStorage(loop *sim.Loop, cfg core.Config, prev *core.System) *core.System {
	// Hand the previous phase's storage to the new system before it boots,
	// so the restarted server's spawn loading reads real data (the
	// boot-time cold reads of §IV-F), and interpose the latency probe
	// before boot so those reads are measured.
	cfg.Remote = prev.Remote
	if cfg.DisableCache || cfg.LocalStore {
		cfg.WrapStore = func(inner mve.ChunkStore) mve.ChunkStore {
			return &storeLatencyProbe{inner: inner, clock: loop, Latency: metrics.NewSample(4096)}
		}
	}
	return core.New(loop, cfg)
}

// Print renders the inverse CDF of each configuration (Fig. 13's axes).
func (r *Fig13Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 13 — Terrain retrieval latency (inverse CDF)")
	t := metrics.Table{Header: []string{"fraction >", "Local", "Serverless", "Serverless+Cache"}}
	for _, f := range ICDFFractions {
		row := []string{fmt.Sprintf("%g", f)}
		for _, cfg := range StorageConfigs {
			row = append(row, msCell(r.Latency[cfg].ICDF(f)))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "(ms; samples: Local %d, Serverless %d, Serverless+Cache %d)\n",
		r.Latency[StorageLocal].Len(), r.Latency[StorageServerless].Len(),
		r.Latency[StorageServerlessCache].Len())
}

// --- Fig. 3: raw blob-store latency ------------------------------------------

// Fig3Report holds download latencies per (data type, service tier).
type Fig3Report struct {
	// Latency[dataType][tier]; data types are "Player" (small objects)
	// and "Terrain" (chunk-sized objects).
	Latency map[string]map[blob.Tier]metrics.Boxplot
}

// Fig3 measures blob-store download latency for player- and terrain-data
// on the Premium and Standard tiers (paper §II-D, Fig. 3).
func Fig3(opt Options) *Fig3Report {
	r := &Fig3Report{Latency: make(map[string]map[blob.Tier]metrics.Boxplot)}
	n := int(1000 * opt.Scale * 10)
	if n < 300 {
		n = 300
	}
	for _, data := range []struct {
		name string
		size int
	}{{"Player", 2 * 1024}, {"Terrain", 64 * 1024}} {
		r.Latency[data.name] = make(map[blob.Tier]metrics.Boxplot)
		for _, tier := range []blob.Tier{blob.TierPremium, blob.TierStandard} {
			loop := sim.NewLoop(opt.Seed)
			store := blob.NewStore(loop, tier)
			store.Put("obj", make([]byte, data.size), nil)
			loop.Run()
			for i := 0; i < n; i++ {
				store.Get("obj", func([]byte, error) {})
			}
			loop.Run()
			r.Latency[data.name][tier] = store.ReadLatency.Box()
			opt.logf("fig3: %s %s p50=%v", data.name, tier, r.Latency[data.name][tier].P50)
		}
	}
	return r
}

// Print renders the boxplot rows with the genre latency thresholds the
// paper overlays (FPS 100 ms, RPG 500 ms, RTS 1000 ms).
func (r *Fig3Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 3 — Download latency from serverless storage")
	t := metrics.Table{Header: []string{"data", "tier", "p5", "p25", "p50", "p75", "p95", "max"}}
	for _, name := range []string{"Player", "Terrain"} {
		for _, tier := range []blob.Tier{blob.TierPremium, blob.TierStandard} {
			b := r.Latency[name][tier]
			t.AddRow(name, tier.String(),
				msCell(b.P5), msCell(b.P25), msCell(b.P50), msCell(b.P75), msCell(b.P95), msCell(b.Max))
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "(genre thresholds: FPS 100 ms, RPG 500 ms, RTS 1000 ms)")
}
