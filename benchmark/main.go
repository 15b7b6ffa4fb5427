// Command benchmark is the repository's end-to-end performance ledger:
// five seeded workloads over the real Servo stack, each reporting what a
// user of the system would see (throughput, CPU, allocation, memory,
// latency) and, on a separate traced run, where each layer's share of
// that went. See README.md in this directory and BENCHMARK.json at the
// repository root.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"servo/internal/blob"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	repeat   int
	// traceDir, when set, makes the run a traced one and is where its spans
	// and profiles are written.
	traceDir string
	// scale shrinks the workload for the smoke test; 0 is full size. No
	// flag sets it: a scaled run's numbers are not the ledger's.
	scale float64
}

func (o options) traced() bool { return o.traceDir != "" }

// report is everything one run learned; the driver's one-line result is
// derived from it.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	InputsHash string  `json:"inputs_hash"`
	Size       sizing  `json:"size"`
	Procs      int     `json:"gomaxprocs"`
	Transport  string  `json:"transport,omitempty"`
	Units      int     `json:"units"`
	OnceSetupS float64 `json:"once_setup_s"`
	Attempted  int64   `json:"ops_attempted"`
	Failed     int64   `json:"ops_failed"`
	FailedPct  float64 `json:"failed_ops_pct"`
	// Work holds one fingerprint per population.
	Work     []fingerprint      `json:"work_fingerprint"`
	Correct  bool               `json:"correct"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	Spread   map[string]spread  `json:"spread,omitempty"`
	// PerUnit holds every unit's own value of each end-to-end metric.
	PerUnit    map[string][]float64 `json:"per_unit,omitempty"`
	PerLayer   map[string]float64   `json:"per_layer,omitempty"`
	TraceFiles []string             `json:"trace_files,omitempty"`
}

// defaultTraceDir is where the driver's --trace 1 writes: inside the
// directory run.sh builds into, which .gitignore names.
var defaultTraceDir = filepath.Join(".bench_build", "trace")

// maxUnits bounds a run however short its units turn out.
const maxUnits = 64

// run measures one workload: units of build → warm → fixed-work window,
// over the seed's populations in turn, until the windows add up to the
// requested seconds (and there are at least repeat units and one per
// population), then the reductions.
func run(o options) (*report, error) {
	size, ok := sizes[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	ins, err := generate(o.workload, o.seed, size.scaled(o.scale))
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: o.workload, Seed: o.seed, Traced: o.traced(), InputsHash: inputsHash(ins),
		Size: ins[0].Size, Procs: runtime.GOMAXPROCS(0), Work: make([]fingerprint, len(ins)),
	}
	if o.workload == "rt-loopback" {
		rep.Transport = fmt.Sprintf("loopback TCP (127.0.0.1), closed loop, %d probe connections, %d in-process bots",
			rep.Size.Probes, rep.Size.Players)
	}
	var once *blob.Store
	if o.workload == "revisit" {
		t0 := time.Now()
		once = prewrite(ins[0])
		rep.OnceSetupS = time.Since(t0).Seconds()
	}

	var units []*unit
	seen := make([]bool, len(ins))
	measured := 0.0
	for len(units) < maxUnits && (len(units) < max(o.repeat, len(ins)) || measured < o.seconds) {
		// A traced run follows each plain unit with two traced ones over
		// the same population, so the overhead is a like-for-like
		// comparison and most of the run feeds the profile; the first
		// traced unit also takes the direct-call timings.
		traced := o.traced() && len(units)%3 != 0
		direct := traced && len(units) == 1
		pop := len(units) % len(ins)
		if o.traced() {
			pop = len(units) / 3 % len(ins)
		}
		var u *unit
		if o.workload == "rt-loopback" {
			u, err = rtUnit(ins[pop], traced, direct)
		} else {
			u, err = virtualUnit(ins[pop], traced, direct, once)
		}
		if err != nil {
			return nil, err
		}
		// The virtual clock makes a unit's work a pure function of the
		// commit and its population: whenever a population comes round
		// again, traced or not, it must have done what it did before.
		switch {
		case !seen[pop]:
			seen[pop], rep.Work[pop] = true, u.Work
		case o.workload != "rt-loopback" && !reflect.DeepEqual(u.Work, rep.Work[pop]):
			return nil, fmt.Errorf("%s seed %d: unit %d did different work than the earlier unit over population %d:\n  %+v\n  %+v",
				o.workload, o.seed, len(units), pop, u.Work, rep.Work[pop])
		}
		units = append(units, u)
		measured += u.WallS
		rep.Attempted += u.Attempted
		rep.Failed += u.Failed
	}
	rep.Units = len(units)

	// End-to-end metrics come from units that ran with tracing off, on
	// either kind of run.
	var plain []*unit
	for _, u := range units {
		if u.LayerNs == nil {
			plain = append(plain, u)
		}
	}
	rep.EndToEnd, rep.Spread, rep.PerUnit = endToEndValues(plain, rep.OnceSetupS)
	rep.FailedPct = ratio(float64(rep.Failed), float64(rep.Attempted)) * 100
	if o.traced() {
		rep.PerLayer = perLayerValues(o.workload, units)
		if rep.TraceFiles, err = writeTraces(o, units); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0 && allFinite(rep.EndToEnd) && allFinite(rep.PerLayer)
	return rep, nil
}

func allFinite(m map[string]float64) bool {
	for _, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// writeTraces writes each traced unit's spans (Chrome trace-event JSON),
// its raw CPU profile (for go tool pprof) and the profile's layer split.
func writeTraces(o options, units []*unit) ([]string, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for i, u := range units {
		if u.LayerNs == nil {
			continue
		}
		base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d-unit%d", o.workload, o.seed, i))
		if err := writeChromeTrace(base+".trace.json", u.Spans); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".pprof", u.Profile, 0o644); err != nil {
			return nil, err
		}
		layers, err := json.MarshalIndent(u.LayerNs, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+".layers.json", layers, 0o644); err != nil {
			return nil, err
		}
		files = append(files, base+".trace.json", base+".pprof", base+".layers.json")
	}
	return files, nil
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the report's answer to the driver: the per-layer metrics of a
// traced run, the end-to-end ones otherwise.
func (r *report) result(traced bool) result {
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer, r.PerLayer
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// manifest is the part of BENCHMARK.json the program reads back.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// selfcheck runs the workload twice back to back and holds the two sets'
// medians to each other within each metric's own bound, in either
// direction: the benchmark checking that its noise floor is below the
// regressions it claims to catch.
func selfcheck(o options, manifestPath string) error {
	m, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	o.traceDir = ""
	first, err := run(o)
	if err != nil {
		return err
	}
	second, err := run(o)
	if err != nil {
		return err
	}
	if o.workload != "rt-loopback" && !reflect.DeepEqual(first.Work, second.Work) {
		return fmt.Errorf("selfcheck %s: the two sets did different work:\n  %+v\n  %+v", o.workload, first.Work, second.Work)
	}
	var bad []error
	if first.Failed+second.Failed > 0 {
		bad = append(bad, fmt.Errorf("%d failed operations", first.Failed+second.Failed))
	}
	for _, d := range m.EndToEnd {
		a, b := first.EndToEnd[d.Name], second.EndToEnd[d.Name]
		apart := math.Abs(b-a) / a
		verdict := "ok"
		if apart > d.Bound {
			verdict = "OUT OF BOUND"
			bad = append(bad, fmt.Errorf("%s: %g then %g, %.1f%% apart (bound %.0f%%)", d.Name, a, b, apart*100, d.Bound*100))
		}
		fmt.Fprintf(os.Stderr, "selfcheck %-12s %-26s %12.4f %12.4f  %5.1f%%  bound %2.0f%%  %s\n",
			o.workload, d.Name, a, b, apart*100, d.Bound*100, verdict)
	}
	return errors.Join(bad...)
}

// compare prints where this run's work differed from an earlier run's
// report, so a throughput comparison over different work is visible.
func compare(rep *report, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A saved standard output holds the report first, then the result.
	var prev report
	if err := json.NewDecoder(f).Decode(&prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case prev.Workload != rep.Workload || prev.InputsHash != rep.InputsHash:
		fmt.Fprintf(os.Stderr, "compare: different inputs (%s %s vs %s %s): the runs are not comparable\n",
			prev.Workload, prev.InputsHash, rep.Workload, rep.InputsHash)
	case reflect.DeepEqual(prev.Work, rep.Work):
		fmt.Fprintln(os.Stderr, "compare: same inputs, same work fingerprint")
	default:
		fmt.Fprintf(os.Stderr, "compare: same inputs, DIFFERENT work:\n  then %+v\n  now  %+v\n", prev.Work, rep.Work)
	}
	return nil
}

// runAll runs every workload in a fresh process each, so no workload
// inherits another's heap, and merges the reports.
func runAll(args []string, merge bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	merged := make(map[string]json.RawMessage)
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"-workload=" + name}, args...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		if !merge {
			continue
		}
		// The child's first line is its report, its last the result.
		var first json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(out)).Decode(&first); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		merged[name] = first
	}
	if !merge {
		return nil
	}
	return json.NewEncoder(os.Stdout).Encode(merged)
}

func main() {
	var o options
	var trace string
	var doSelfcheck bool
	var manifestPath, comparePath string
	flag.StringVar(&o.workload, "workload", "", "workload to run: one of "+fmt.Sprint(workloadNames)+" or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 15, "measure until the windows add up to this many wall seconds")
	flag.StringVar(&trace, "trace", "0", "a directory: traced run, reports the per-layer metrics instead of the end-to-end ones and writes its spans and profiles there; 1 stands for "+defaultTraceDir+", 0 for no tracing")
	flag.IntVar(&o.repeat, "repeat", 3, "measure at least this many units")
	flag.BoolVar(&doSelfcheck, "selfcheck", false, "run two sets back to back and fail if they disagree beyond the bounds in BENCHMARK.json")
	flag.StringVar(&manifestPath, "manifest", "BENCHMARK.json", "path of BENCHMARK.json (for -selfcheck)")
	flag.StringVar(&comparePath, "compare", "", "an earlier run's report: print how the work fingerprint differs")
	flag.Parse()
	switch trace {
	case "0", "":
	case "1":
		o.traceDir = defaultTraceDir
	default:
		o.traceDir = trace
	}

	// The load generator shares the machine with the program under test:
	// both stay within two threads however many cores the host has, so
	// numbers from differently sized hosts differ by clock, not by width.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if err := mainErr(o, doSelfcheck, manifestPath, comparePath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(o options, doSelfcheck bool, manifestPath, comparePath string) error {
	if o.workload == "all" {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		return runAll(args, !doSelfcheck)
	}
	if doSelfcheck {
		return selfcheck(o, manifestPath)
	}
	rep, err := run(o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if comparePath != "" {
		if err := compare(rep, comparePath); err != nil {
			return err
		}
	}
	if err := enc.Encode(rep.result(rep.Traced)); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s seed %d: incorrect run: %d of %d operations failed",
			o.workload, o.seed, rep.Failed, rep.Attempted)
	}
	return nil
}
