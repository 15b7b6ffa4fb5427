package experiment

import (
	"fmt"

	"io"
	"servo/internal/blob"
	"time"

	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/sc"
	"servo/internal/servo/specexec"
	"servo/internal/servo/tcache"
	"servo/internal/sim"
	"servo/internal/world"
)

// Ablations isolate the design choices DESIGN.md calls out: the loop-
// detection cost optimisation (§III-C1), the cache pre-fetcher (§III-E),
// and the cloud-platform latency model (AWS vs Azure, §IV). They are not
// figures from the paper; they quantify how much each mechanism matters.

// AblationLoopReport compares loop detection on/off for periodic
// constructs.
type AblationLoopReport struct {
	// Invocations and cost per configuration over the window.
	Invocations map[bool]int
	Dollars     map[bool]float64
	ServerWork  map[bool]int64 // SC work units executed on the loop
}

// AblationLoop runs 50 clock constructs (all periodic) with and without
// loop detection and compares invocation counts and billed cost: the
// §III-C1 optimisation in numbers. It stays Go rather than a scenario
// cell: its clock constructs are not the engine's BuildSized constructs.
func AblationLoop(opt Options) *AblationLoopReport {
	r := &AblationLoopReport{
		Invocations: make(map[bool]int),
		Dollars:     make(map[bool]float64),
		ServerWork:  make(map[bool]int64),
	}
	for _, detect := range []bool{true, false} {
		loop := sim.NewLoop(opt.Seed)
		sys := core.New(loop, core.Config{
			WorldType:    "flat",
			Seed:         opt.Seed,
			ServerlessSC: true,
			SpecExec:     specexec.Config{TickLead: 20, StepsPerInvocation: 100, DetectLoops: detect},
		})
		for i := 0; i < 50; i++ {
			sys.Cluster.SpawnConstruct(sc.NewClock(3, 1+i%3),
				world.BlockPos{X: (i%10)*20 - 100, Y: 5, Z: (i/10)*20 - 100})
		}
		sys.Cluster.Start()
		loop.RunUntil(opt.window(10 * time.Minute))
		sys.Cluster.Stop()
		r.Invocations[detect] = sys.SCFn.Invocations.Count()
		r.Dollars[detect] = sys.SCFn.BilledDollars()
		s := sys.Shards[0].SpecExec.Snapshot()
		r.ServerWork[detect] = s.LocalSteps + s.RemoteSteps + s.ReplaySteps
		opt.logf("ablation-loop: detect=%v invocations=%d $%.4f", detect,
			r.Invocations[detect], r.Dollars[detect])
	}
	return r
}

// Print renders the comparison.
func (r *AblationLoopReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation — Loop detection (§III-C1), 50 periodic clock constructs")
	t := metrics.Table{Header: []string{"loop detection", "invocations", "billed $", "construct-steps served"}}
	for _, detect := range []bool{true, false} {
		t.AddRow(fmt.Sprint(detect), fmt.Sprint(r.Invocations[detect]),
			fmt.Sprintf("%.4f", r.Dollars[detect]), fmt.Sprint(r.ServerWork[detect]))
	}
	fmt.Fprint(w, t.String())
	if r.Invocations[false] > 0 {
		fmt.Fprintf(w, "loop detection cuts invocations by %.0f%%\n",
			100*(1-float64(r.Invocations[true])/float64(r.Invocations[false])))
	}
}

// AblationPrefetchReport compares the cached store with and without
// pre-fetching.
type AblationPrefetchReport struct {
	// P99 retrieval latency with prefetch on/off.
	P99  map[bool]time.Duration
	Hits map[bool]int64
	Miss map[bool]int64
}

// AblationPrefetch replays a frontier-read pattern against a warm remote
// store, with the pre-fetcher enabled and disabled.
func AblationPrefetch(opt Options) *AblationPrefetchReport {
	r := &AblationPrefetchReport{
		P99:  make(map[bool]time.Duration),
		Hits: make(map[bool]int64),
		Miss: make(map[bool]int64),
	}
	n := int(2000 * opt.Scale * 10)
	if n < 400 {
		n = 400
	}
	for _, prefetch := range []bool{true, false} {
		loop := sim.NewLoop(opt.Seed)
		remote := blobStoreWithChunks(loop, n)
		cfg := tcache.DefaultConfig()
		cache := tcache.New(loop, remote, cfg)
		for i := 0; i < n; i++ {
			pos := world.ChunkPos{X: i, Z: 0}
			if prefetch && i+12 < n {
				var ahead []world.ChunkPos
				for j := i + 4; j < i+12; j++ {
					ahead = append(ahead, world.ChunkPos{X: j, Z: 0})
				}
				cache.Prefetch(ahead)
			}
			cache.Get(pos, func([]byte, error) {})
			loop.RunUntil(loop.Now() + 500*time.Millisecond)
		}
		loop.Run()
		r.P99[prefetch] = cache.RetrievalLatency.Percentile(99)
		r.Hits[prefetch] = cache.Hits.Value()
		r.Miss[prefetch] = cache.Misses.Value()
		opt.logf("ablation-prefetch: prefetch=%v p99=%v", prefetch, r.P99[prefetch])
	}
	return r
}

// Print renders the comparison.
func (r *AblationPrefetchReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation — Distance pre-fetching (§III-E), frontier read pattern")
	t := metrics.Table{Header: []string{"prefetch", "p99 retrieval", "hits", "misses"}}
	for _, p := range []bool{true, false} {
		t.AddRow(fmt.Sprint(p), fmt.Sprintf("%.1fms", float64(r.P99[p])/1e6),
			fmt.Sprint(r.Hits[p]), fmt.Sprint(r.Miss[p]))
	}
	fmt.Fprint(w, t.String())
}

// AblationPlatformReport compares function latency under the AWS and Azure
// platform presets.
type AblationPlatformReport struct {
	Latency map[string]metrics.Boxplot
	Colds   map[string]int64
}

// AblationPlatform invokes the construct-simulation function under both
// commercial-platform presets (the paper evaluates on AWS and Azure).
func AblationPlatform(opt Options) *AblationPlatformReport {
	r := &AblationPlatformReport{
		Latency: make(map[string]metrics.Boxplot),
		Colds:   make(map[string]int64),
	}
	n := int(500 * opt.Scale * 10)
	if n < 200 {
		n = 200
	}
	construct := sc.BuildSized(252)
	for name, preset := range map[string]faas.Config{
		"AWS":   faas.PresetAWS(),
		"Azure": faas.PresetAzure(),
	} {
		cfg := core.DefaultSCFnConfig()
		cfg.ColdStart = preset.ColdStart
		cfg.NetRTT = preset.NetRTT
		cfg.KeepAlive = preset.KeepAlive
		loop := sim.NewLoop(opt.Seed)
		platform := faas.NewPlatform(loop)
		fn := platform.Register("sim", cfg, specexec.NewHandler())
		for i := 0; i < n; i++ {
			i := i
			loop.After(time.Duration(i)*4*time.Second, func() {
				req := specexec.Request{Steps: 100, Layout: construct.EncodeLayout()}
				platform.Invoke("sim", specexec.EncodeRequest(req), func(faas.Invocation) {})
			})
		}
		loop.Run()
		r.Latency[name] = fn.Latency.Box()
		r.Colds[name] = fn.ColdStarts.Value()
		opt.logf("ablation-platform: %s p50=%v colds=%d", name, r.Latency[name].P50, r.Colds[name])
	}
	return r
}

// Print renders the comparison.
func (r *AblationPlatformReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation — Cloud platform presets (AWS Lambda vs Azure Functions)")
	t := metrics.Table{Header: []string{"platform", "p50", "p95", "max", "cold starts"}}
	for _, name := range []string{"AWS", "Azure"} {
		b := r.Latency[name]
		t.AddRow(name, msCell(b.P50), msCell(b.P95), msCell(b.Max), fmt.Sprint(r.Colds[name]))
	}
	fmt.Fprint(w, t.String())
}

// blobStoreWithChunks seeds a premium store with n chunk objects in a row
// along +X.
func blobStoreWithChunks(loop *sim.Loop, n int) *blob.Store {
	remote := blob.NewStore(loop, blob.TierPremium)
	for i := 0; i < n; i++ {
		pos := world.ChunkPos{X: i, Z: 0}
		remote.Put(tcache.Key(pos), []byte("chunk-payload"), nil)
	}
	loop.Run()
	return remote
}
