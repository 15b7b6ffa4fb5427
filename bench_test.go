package servo

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates the artifact at bench
// scale and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result set end to end. Scale with
// -servo.scale=1.0 for paper-length measurement windows.

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"servo/internal/cluster"
	"servo/internal/experiment"
	"servo/internal/mve"
	"servo/internal/sim"
	"servo/internal/world"
)

var benchScale = flag.Float64("servo.scale", 0.1, "experiment duration scale for benchmarks (1.0 = paper length)")

// benchSmokeScale is the scale cap in -short mode: `make benchsmoke` is a
// compile-and-execute gate over every figure pipeline, not a measurement,
// so the windows shrink to seconds of virtual time.
const benchSmokeScale = 0.02

func benchOpt() experiment.Options {
	scale := *benchScale
	if testing.Short() && scale > benchSmokeScale {
		scale = benchSmokeScale
	}
	return experiment.Options{Seed: 42, Scale: scale}
}

// BenchmarkFig1MaxPlayers regenerates Fig. 1: the headline maximum-players
// comparison in the 100-construct world (paper: Servo 150, Minecraft 90,
// Opencraft 10).
func BenchmarkFig1MaxPlayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig1(benchOpt())
		b.ReportMetric(float64(r.Max[experiment.Servo]), "servo-players")
		b.ReportMetric(float64(r.Max[experiment.Opencraft]), "opencraft-players")
		b.ReportMetric(float64(r.Max[experiment.Minecraft]), "minecraft-players")
	}
}

// BenchmarkFig3BlobLatency regenerates Fig. 3: download latency from
// serverless storage per data type and tier.
func BenchmarkFig3BlobLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig3(benchOpt())
		b.ReportMetric(r.Latency["Terrain"][2].P50.Seconds()*1000, "premium-p50-ms")
		b.ReportMetric(r.Latency["Terrain"][3].P50.Seconds()*1000, "standard-p50-ms")
	}
}

// BenchmarkFig7aScalability regenerates Fig. 7a: maximum supported players
// for 0/50/100/200 simulated constructs across all three games.
func BenchmarkFig7aScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig7a(benchOpt())
		b.ReportMetric(float64(r.Max[200][experiment.Servo]), "servo-at-200sc")
		b.ReportMetric(float64(r.Max[200][experiment.Opencraft]), "opencraft-at-200sc")
		b.ReportMetric(float64(r.Max[0][experiment.Opencraft]), "opencraft-at-0sc")
	}
}

// BenchmarkFig7bTickDistribution regenerates Fig. 7b: tick-duration
// distributions for 10..200 players at 200 constructs.
func BenchmarkFig7bTickDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig7b(benchOpt())
		last := r.Players[len(r.Players)-1]
		b.ReportMetric(r.Box[experiment.Servo][last].P95.Seconds()*1000, "servo-p95-ms")
		b.ReportMetric(r.Box[experiment.Opencraft][last].P95.Seconds()*1000, "opencraft-p95-ms")
	}
}

// BenchmarkFig8Efficiency regenerates Fig. 8: speculation efficiency vs
// tick lead and simulation length (paper: lead 0 → 0.84 median, lead ≥ 10
// → 1.0).
func BenchmarkFig8Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig8(benchOpt())
		b.ReportMetric(r.ByLead[0].Median, "lead0-median-eff")
		b.ReportMetric(r.ByLead[20].Median, "lead20-median-eff")
		b.ReportMetric(r.BySteps[200].Median, "steps200-median-eff")
	}
}

// BenchmarkFig9InvocationCost regenerates Fig. 9: invocation latency,
// rate, and the §IV-C hourly cost (paper: $0.216–$0.244).
func BenchmarkFig9InvocationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig9(benchOpt())
		b.ReportMetric(r.Latency[200].Mean.Seconds()*1000, "steps200-mean-ms")
		b.ReportMetric(r.DollarsHour[100], "dollars-per-hour")
	}
}

// finalViewRange returns the mean view range of the last quarter of the run
// for a game.
func finalViewRange(r *experiment.Fig10Report, g experiment.Game) float64 {
	s := r.Series[g].ViewRange
	if len(s) == 0 {
		return 0
	}
	tail := s[len(s)*3/4:]
	var sum float64
	for _, p := range tail {
		sum += float64(p.Mean)
	}
	return sum / float64(len(tail))
}

// BenchmarkFig10TerrainQoS regenerates Fig. 10: view-range QoS under the
// Sinc workload (paper: Servo holds 128, Opencraft collapses below 16).
func BenchmarkFig10TerrainQoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig10(benchOpt())
		b.ReportMetric(finalViewRange(r, experiment.Servo), "servo-final-view")
		b.ReportMetric(finalViewRange(r, experiment.Opencraft), "opencraft-final-view")
	}
}

// BenchmarkFig11MemoryScaling regenerates Fig. 11: generation latency and
// cost-efficiency vs function memory.
func BenchmarkFig11MemoryScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig11(benchOpt())
		b.ReportMetric(r.Latency[320].Mean.Seconds(), "mem320-mean-s")
		b.ReportMetric(r.Latency[10240].Mean.Seconds(), "mem10240-mean-s")
	}
}

// BenchmarkFig12aTerrainScalability regenerates Fig. 12a: supported
// players under the S3/S8 star workloads (paper: Servo 18/15, Opencraft
// 12/9).
func BenchmarkFig12aTerrainScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig12a(benchOpt())
		b.ReportMetric(float64(r.Series["S3"][experiment.Servo].SupportedPlayers), "servo-s3")
		b.ReportMetric(float64(r.Series["S3"][experiment.Opencraft].SupportedPlayers), "opencraft-s3")
		b.ReportMetric(float64(r.Series["S8"][experiment.Servo].SupportedPlayers), "servo-s8")
		b.ReportMetric(float64(r.Series["S8"][experiment.Opencraft].SupportedPlayers), "opencraft-s8")
	}
}

// BenchmarkFig12bRandomWorkload regenerates Fig. 12b: supported players
// under the random behavior, repeated.
func BenchmarkFig12bRandomWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig12b(benchOpt())
		b.ReportMetric(r.Mean(experiment.Servo), "servo-mean-players")
		b.ReportMetric(r.Mean(experiment.Opencraft), "opencraft-mean-players")
	}
}

// BenchmarkFig13StorageLatency regenerates Fig. 13: terrain retrieval
// latency for local, serverless, and cached-serverless storage (paper:
// cache cuts the p99.9 from 226 ms to 34 ms).
func BenchmarkFig13StorageLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig13(benchOpt())
		b.ReportMetric(r.Latency[experiment.StorageServerless].Percentile(99.9).Seconds()*1000, "serverless-p999-ms")
		b.ReportMetric(r.Latency[experiment.StorageServerlessCache].Percentile(99.9).Seconds()*1000, "cached-p999-ms")
	}
}

// BenchmarkSec4GConstructPerf regenerates §IV-G: offloaded simulation
// rates for 252- and 484-block constructs (paper: ≥488 and ≥105 updates/s
// for 95% of samples).
func BenchmarkSec4GConstructPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Sec4G(benchOpt())
		b.ReportMetric(r.P5Rate[252], "blocks252-p5-rate")
		b.ReportMetric(r.P5Rate[484], "blocks484-p5-rate")
	}
}

// BenchmarkTableI prints the Table I experiment registry (a smoke
// benchmark keeping the tables in the `-bench=.` sweep).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.TableI(io.Discard)
		experiment.TableII(io.Discard)
	}
}

// visBenchCluster builds a two-shard visibility cluster with n idle
// border residents paired across a band seam, spaced along Z so each
// pair audits locally (the layout internal/cluster's
// TestVisibilityScanZeroAlloc pins at zero allocations).
func visBenchCluster(n int) *cluster.Cluster {
	loop := sim.NewLoop(7)
	c := cluster.New(loop, cluster.Config{
		Shards:     2,
		Topology:   world.BandTopology{BandChunks: 4},
		Visibility: cluster.VisibilityConfig{Enabled: true, Margin: 16},
	}, func(i int, region world.Region) *mve.Server {
		return mve.NewServer(loop, mve.Config{WorldType: "flat", ViewDistance: 32, Region: region})
	})
	for i := 0; i < n; i++ {
		x := 60
		if i%2 == 1 {
			x = 70
		}
		c.ConnectAt(fmt.Sprintf("r%d", i), nil, world.BlockPos{X: x, Y: 0, Z: (i / 2) * 48})
	}
	c.VisibilityScanOnce() // warm the membership caches and ghost registries
	return c
}

// BenchmarkVisibilityScan measures one replication tick of the interest-
// management layer at 1k and 4k border residents. The dirty-set scan
// must be allocation-free in steady state. (The full-rescan reference it
// replaced is benchmarked beside the reference itself, in
// internal/cluster.)
func BenchmarkVisibilityScan(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("incremental-%d", n), func(b *testing.B) {
			c := visBenchCluster(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.VisibilityScanOnce()
			}
		})
	}
}

// BenchmarkGhostDigest measures the digest wire form on a 512-entry
// shard pair.
func BenchmarkGhostDigest(b *testing.B) {
	entries := make([]cluster.DigestEntry, 512)
	for i := range entries {
		entries[i] = cluster.DigestEntry{Name: fmt.Sprintf("player-%04d", i), X: float64(i), Z: 5, Home: i % 2}
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.EncodeGhostDigest(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineTick measures the raw cost of one fully-loaded Servo
// game tick (200 constructs, 100 players) — the engine hot path.
func BenchmarkEngineTick(b *testing.B) {
	inst := NewInstance(Config{Seed: 1, WorldType: "flat", Servo: Serverless{Constructs: true}})
	defer inst.Stop()
	for i := 0; i < 200; i++ {
		inst.SpawnConstruct(NewConstructSized(250), At((i%14)*15-105, 5, (i/14)*15-105))
	}
	for i := 0; i < 100; i++ {
		inst.Connect("p", BehaviorBounded)
	}
	inst.Run(10 * 50 * 1000000) // 10 ticks of warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Run(50 * 1000000) // one 50 ms tick
	}
}
