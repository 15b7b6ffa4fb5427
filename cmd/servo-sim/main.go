// Command servo-sim executes declarative simulation scenarios against the
// real Servo stack on the deterministic virtual clock.
//
// Usage:
//
//	servo-sim list                     # bundled scenarios
//	servo-sim validate all             # check every bundled scenario
//	servo-sim validate my-scenario.json
//	servo-sim run all                  # run every bundled scenario
//	servo-sim run flash-crowd stress-fleet
//	servo-sim run -v -seed 7 my-scenario.json
//	servo-sim run -format csv rebalance-hotspot   # machine-readable report
//	servo-sim run -topology grid:4x4 sharded-stress  # 2-D region tiles
//	servo-sim replay all               # byte-identical replay gate
//	servo-sim parity all               # reports hash-identical to PARITY.sha256
//	servo-sim parity -update all       # re-pin after a change meant to alter reports
//
// Arguments to run/validate/replay are bundled scenario names or paths
// to scenario JSON files (anything containing a path separator or ending
// in .json is treated as a file). run exits non-zero if any scenario
// fails its assertions (with -v it also logs progress and, at the end of
// each run, the cluster journal to stderr); replay runs every scenario
// twice and exits non-zero on any report or journal difference; parity
// compares each scenario's report hash with the checked-in one and exits
// non-zero naming the scenarios that differ.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"servo/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:])) }

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  servo-sim list
  servo-sim validate all | <name|file.json>...
  servo-sim run [-v] [-seed N] [-shards N] [-workers N] [-topology band|grid:XxZ] [-autoscale] [-format text|csv] all | <name|file.json>...
  servo-sim replay all | <name|file.json>...
  servo-sim parity [-update] [-file PARITY.sha256] all | <name|file.json>...`)
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "validate":
		return cmdValidate(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "parity":
		return cmdParity(args[1:])
	case "-h", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "servo-sim: unknown subcommand %q\n", args[0])
	usage()
	return 2
}

func cmdList() int {
	for _, name := range scenario.Bundled() {
		spec, err := scenario.LoadBundled(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		fmt.Printf("%-22s %s\n", name, spec.Description)
	}
	return 0
}

// resolve expands "all" and loads each argument as a bundled name or a
// scenario file path. An empty argument list is an error, as the usage
// text promises: running the whole suite requires the explicit "all".
func resolve(args []string) ([]*scenario.Spec, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf(`no scenarios given (use "all" for every bundled scenario)`)
	}
	if len(args) == 1 && args[0] == "all" {
		args = scenario.Bundled()
	}
	var specs []*scenario.Spec
	for _, arg := range args {
		var (
			spec *scenario.Spec
			err  error
		)
		if strings.ContainsRune(arg, os.PathSeparator) || strings.HasSuffix(arg, ".json") {
			spec, err = scenario.ParseFile(arg)
		} else {
			spec, err = scenario.LoadBundled(arg)
		}
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func cmdValidate(args []string) int {
	specs, err := resolve(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
		return 1
	}
	for _, spec := range specs {
		fmt.Printf("ok  %s\n", spec.Name)
	}
	return 0
}

// parseTopology turns a -topology value ("band", "grid:4x4") into a
// scenario topology section.
func parseTopology(arg string) (*scenario.TopologySpec, error) {
	if arg == "band" {
		return &scenario.TopologySpec{Kind: "band"}, nil
	}
	var tx, tz int
	// The round-trip check rejects trailing garbage ("grid:4x4x8"),
	// which Sscanf would otherwise silently ignore.
	if n, err := fmt.Sscanf(arg, "grid:%dx%d", &tx, &tz); n == 2 && err == nil &&
		fmt.Sprintf("grid:%dx%d", tx, tz) == arg {
		return &scenario.TopologySpec{Kind: "grid", TilesX: tx, TilesZ: tz}, nil
	}
	return nil, fmt.Errorf(`-topology must be "band" or "grid:<X>x<Z>" (got %q)`, arg)
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	verbose := fs.Bool("v", false, "log per-event progress and, at the end of each run, the cluster journal to stderr")
	seed := fs.Int64("seed", 0, "override every scenario's seed (0 = use the spec's)")
	shards := fs.Int("shards", 0, "override every scenario's shard count (0 = use the spec's; >1 runs a region-sharded cluster)")
	workers := fs.Int("workers", 0, "override every scenario's worker-pool size for lane-batched shard ticks (0 = use the spec's; reports are byte-identical for every pool size)")
	topology := fs.String("topology", "", `override every scenario's region topology: "band" or "grid:<X>x<Z>" (e.g. grid:4x4; requires a sharded scenario)`)
	autoscale := fs.Bool("autoscale", false, "force-enable elastic shard autoscaling with default policy knobs (requires a sharded scenario; specs with their own autoscale section keep it)")
	format := fs.String("format", "text", `report format: "text" or "csv" (csv covers summary metrics, assertions, and the per-tick series)`)
	_ = fs.Parse(args)
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "servo-sim: -format must be \"text\" or \"csv\" (got %q)\n", *format)
		return 2
	}
	var topo *scenario.TopologySpec
	if *topology != "" {
		var err error
		if topo, err = parseTopology(*topology); err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 2
		}
	}
	specs, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
		return 1
	}
	if *format == "csv" {
		// One header for the whole invocation: `run -format csv all` must
		// produce a single parseable table, not N header rows.
		fmt.Println(scenario.CSVHeader)
	}
	failed := 0
	for _, spec := range specs {
		if *seed != 0 {
			spec.Seed = *seed
		}
		if *shards != 0 {
			// Re-validated inside Run, so a spec that depends on its
			// shard count (per-shard assertions, placement) surfaces a
			// clear error instead of running nonsense.
			spec.Shards = *shards
		}
		if *workers != 0 {
			// Re-validated inside Run (bounds check lives in the spec).
			spec.Workers = *workers
		}
		if topo != nil {
			// Also re-validated inside Run: an off-grid tile placement forced
			// onto a grid (or a grid forced onto one shard) errors out.
			t := *topo
			spec.Topology = &t
		}
		if *autoscale && spec.Autoscale == nil {
			// Default knobs; re-validated inside Run, so forcing autoscale
			// onto a one-shard spec errors out instead of no-opping.
			spec.Autoscale = &scenario.AutoscaleSpec{}
		}
		var log io.Writer
		if *verbose {
			log = os.Stderr
		}
		rep, _, err := scenario.Run(spec, log)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		if *format == "csv" {
			fmt.Print(rep.RenderCSVRows())
		} else {
			fmt.Print(rep.Render())
		}
		if !rep.Pass {
			failed++
		}
	}
	// In CSV mode the summary goes to stderr, keeping stdout pure CSV.
	summary := os.Stdout
	if *format == "csv" {
		summary = os.Stderr
	}
	fmt.Fprintf(summary, "%d scenario(s): %d passed, %d failed\n", len(specs), len(specs)-failed, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// cmdReplay is the determinism gate: every scenario runs twice and both
// report renderings (text and CSV, covering the full per-tick series) and
// the cluster journals (every control-plane event, as run -v writes
// them) must be byte-identical. Assertion failures are not replay
// failures — only a divergent report or journal is.
func cmdReplay(args []string) int {
	specs, err := resolve(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
		return 1
	}
	diverged := 0
	for _, spec := range specs {
		// The rendering is the report followed by the journal, whose lines
		// alone open with "[".
		render := func() (string, error) {
			rep, sys, err := scenario.Run(spec, nil)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString(rep.Render() + rep.RenderCSVRows())
			sys.Cluster.WriteJournal(&b)
			return b.String(), nil
		}
		a, err := render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		b, err := render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		if a == b {
			fmt.Printf("replay ok    %s (%d report and journal bytes)\n", spec.Name, len(a))
			continue
		}
		diverged++
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		i := 0
		for i < len(la)-1 && i < len(lb)-1 && la[i] == lb[i] {
			i++
		}
		fmt.Printf("replay DIFF  %s: line %d differs\n  first run:  %s\n  second run: %s\n", spec.Name, i+1, la[i], lb[i])
	}
	if diverged > 0 {
		fmt.Printf("%d scenario(s) diverged\n", diverged)
		return 1
	}
	fmt.Printf("%d scenario(s) replayed byte-identically\n", len(specs))
	return 0
}

// parityHeader opens the pinned-hash file.
const parityHeader = `# SHA-256 of each bundled scenario's report (text rendering followed by
# the CSV rows, as ` + "`servo-sim replay`" + ` compares them), in sha256sum format.
# ` + "`make paritygate`" + ` fails when a scenario's report no longer hashes to its
# line: a change that claims to leave behaviour alone must leave this file
# alone. ` + "`make parity-update`" + ` rewrites it when a change is meant to alter
# reports. Pinned on linux/amd64; another platform may round a float
# differently.
`

// cmdParity is the parent-parity gate. replay proves a build agrees with
// itself; this proves it agrees with the build that last pinned the
// hashes, which is what a behaviour-preserving change asserts. With
// -update it rewrites the lines of the scenarios it ran (all of them for
// "all") instead of comparing.
func cmdParity(args []string) int {
	fs := flag.NewFlagSet("parity", flag.ExitOnError)
	update := fs.Bool("update", false, "rewrite the pinned hashes of the scenarios run instead of comparing")
	file := fs.String("file", "PARITY.sha256", "pinned-hash file")
	_ = fs.Parse(args)
	specs, err := resolve(fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
		return 1
	}
	// pinned keeps the file's order so an update of one scenario leaves
	// the other lines where they were.
	var names []string
	pinned := map[string]string{}
	if data, err := os.ReadFile(*file); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if hash, name, ok := strings.Cut(line, "  "); ok && !strings.HasPrefix(hash, "#") {
				names = append(names, name)
				pinned[name] = hash
			}
		}
	} else if !*update {
		fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
		return 1
	}
	var differ []string
	for _, spec := range specs {
		rep, _, err := scenario.Run(spec, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		hash := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.Render()+rep.RenderCSVRows())))
		old, known := pinned[spec.Name]
		switch {
		case *update:
			if !known {
				names = append(names, spec.Name)
			}
			pinned[spec.Name] = hash
		case !known:
			fmt.Printf("parity NEW   %s: no pinned hash\n", spec.Name)
			differ = append(differ, spec.Name)
		case old != hash:
			fmt.Printf("parity DIFF  %s: report hashes to %s, pinned %s\n", spec.Name, hash, old)
			differ = append(differ, spec.Name)
		default:
			fmt.Printf("parity ok    %s\n", spec.Name)
		}
	}
	if *update {
		var b strings.Builder
		b.WriteString(parityHeader)
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", pinned[name], name)
		}
		if err := os.WriteFile(*file, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "servo-sim: %v\n", err)
			return 1
		}
		fmt.Printf("pinned %d scenario(s) in %s\n", len(specs), *file)
		return 0
	}
	if len(differ) > 0 {
		fmt.Printf("%d scenario(s) differ from %s: %s\n", len(differ), *file, strings.Join(differ, " "))
		return 1
	}
	fmt.Printf("%d scenario(s) match %s\n", len(specs), *file)
	return 0
}
