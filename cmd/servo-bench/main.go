// Command servo-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	servo-bench -exp fig7a,fig8          # run selected experiments
//	servo-bench -exp all -scale 1.0      # full paper-length durations
//	servo-bench -list                    # list available experiments
//
// -cpuprofile and -memprofile write pprof profiles of the experiments
// that ran, for `go tool pprof` drill-downs into the hot paths.
//
// Scale 1.0 runs the paper's 10-minute measurement windows; the default
// 0.1 gives the same shapes in about a tenth of the wall time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"servo/internal/experiment"
)

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "all", "comma-separated experiments to run, or 'all'")
	seed := flag.Int64("seed", 42, "deterministic experiment seed")
	scale := flag.Float64("scale", 0.1, "duration scale (1.0 = paper-length windows)")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servo-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "servo-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "servo-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "servo-bench:", err)
			}
		}()
	}

	if *list {
		for _, r := range experiment.Runners() {
			fmt.Printf("%-8s %s\n", r.Name, r.Description)
		}
		return 0
	}

	opt := experiment.Options{Seed: *seed, Scale: *scale}
	if *verbose {
		opt.Log = os.Stderr
	}
	if err := experiment.RunByName(*exp, opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servo-bench:", err)
		return 1
	}
	return 0
}
