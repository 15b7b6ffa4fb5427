// Speculative offloading: reproduce the paper's latency-hiding mechanism
// (§III-C) in isolation. A construct is simulated simultaneously on the
// server and in a serverless function; the function works ahead and the
// server applies its speculative states. Compare efficiency across tick
// leads — the Fig. 8 result in miniature.
//
//	go run ./examples/speculative-offloading
package main

import (
	"fmt"
	"time"

	"servo/internal/core"
	"servo/internal/sc"
	"servo/internal/servo/specexec"
	"servo/internal/sim"
	"servo/internal/world"
)

func main() {
	fmt.Println("offloading a 252-block construct for 2 virtual minutes per config")
	fmt.Println()
	fmt.Printf("%-10s %-18s %-16s %-14s\n", "tick lead", "median efficiency", "local steps", "applied steps")
	for _, lead := range []int{0, 10, 20, 40} {
		med, stats := run(lead)
		fmt.Printf("%-10d %-18.3f %-16d %-14d\n", lead, med, stats.LocalSteps, stats.RemoteSteps)
	}
	fmt.Println()
	fmt.Println("lead 0 invokes only when the buffer is empty, so every in-flight")
	fmt.Println("period is re-simulated locally; a 10+ tick lead hides the latency.")
}

func run(lead int) (float64, specexec.Stats) {
	loop := sim.NewLoop(1)
	sys := core.New(loop, core.Config{
		WorldType:    "flat",
		ServerlessSC: true,
		SpecExec: specexec.Config{
			TickLead:           lead,
			StepsPerInvocation: 100,
			DetectLoops:        false,
		},
	})
	sys.Cluster.SpawnConstruct(sc.BuildSized(252), world.BlockPos{X: 4, Y: 5, Z: 4})
	sys.Cluster.Start()
	loop.RunUntil(2 * time.Minute)
	sys.Cluster.Stop()
	mgr := sys.Shards[0].SpecExec
	return mgr.MedianEfficiency(), mgr.Snapshot()
}
