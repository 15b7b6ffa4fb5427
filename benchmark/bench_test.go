package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifest holds BENCHMARK.json to the program's own metric tables and
// to the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	m := loadManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 || m.Command[len(m.Command)-1] != "benchmark/run.sh" {
		t.Errorf("command %q: want a program and benchmark/run.sh", m.Command)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %q: the benchmark lives in benchmark/ alone", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest declares %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i].Name || g.Unit != want[i].Unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", kind, i, g.Name, g.Unit, want[i].Name, want[i].Unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)

	// A bound starts at the issue's value and is only ever raised from it
	// (to three times the measured spread, see README.md), up to the
	// contract's ceiling.
	floor := map[string]float64{
		"setup_s": 0.15, "vsec_per_wallsec": 0.10, "cpu_ms_per_vsec": 0.10, "alloc_mb_per_vsec": 0.02,
		"slice_wall_ms_p95": 0.10, "live_heap_mb": 0.05, "action_to_update_ms_p50": 0.10,
		"action_to_update_ms_p95": 0.10, "update_gap_ms_p95": 0.05, "cpu_ms_per_wallsec": 0.10,
	}
	var setup *manifestMetric
	for i, d := range m.EndToEnd {
		if d.Bound < floor[d.Name] || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [%g, 0.25]", d.Name, d.Bound, floor[d.Name])
		}
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be declared in seconds, lower is better: %+v", setup)
	}
	for _, d := range m.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s: bound %g exceeds setup_s's %g, which must be the largest", d.Name, d.Bound, setup.Bound)
		}
	}
}

// TestSmoke runs all five workloads at about 1/50 scale — one plain unit and
// one traced — and checks that each emits exactly the metrics
// BENCHMARK.json declares for either kind of run, in the declared units.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	for _, name := range workloadNames {
		scale := 0.02
		if name == "rt-loopback" {
			scale = 0.2 // wall-clock windows need room for a few probe actions
		}
		rep, err := run(options{workload: name, seed: 7, scale: scale, repeat: 2, traceDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.TraceFiles) == 0 {
			t.Errorf("%s: traced run wrote no trace files", name)
		}
		for _, traced := range []bool{false, true} {
			declared, got := m.EndToEnd, rep.result(traced).Metrics
			if traced {
				declared = m.PerLayer
			}
			if len(got) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(got), len(declared))
			}
			for _, d := range declared {
				v, ok := got[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s emitted as %+v (present=%v), declared unit %s", name, traced, d.Name, v, ok, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestInputs pins the seed contract: the inputs are a function of the
// seed, and revisit replays exactly the rays explore generated.
func TestInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 3, sizes[name])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 3, sizes[name])
		c, _ := generate(name, 4, sizes[name])
		if len(a) != sizes[name].Populations {
			t.Errorf("%s: %d populations generated, sized for %d", name, len(a), sizes[name].Populations)
		}
		if inputsHash(a) != inputsHash(b) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if inputsHash(a) == inputsHash(c) {
			t.Errorf("%s: different seeds, same inputs", name)
		}
	}
	cl, _ := generate("cluster", 3, sizes["cluster"])
	if reflect.DeepEqual(cl[0].Players, cl[1].Players) {
		t.Error("cluster: two populations of one seed are the same")
	}
	ex, _ := generate("explore", 9, sizes["explore"])
	re, _ := generate("revisit", 9, sizes["explore"])
	if !reflect.DeepEqual(ex[0].Players, re[0].Players) || inputsHash(ex) != inputsHash(re) {
		t.Error("revisit does not replay explore's rays")
	}
}

// TestAttribution feeds the profile aggregator a synthetic stack set.
func TestAttribution(t *testing.T) {
	stacks := []stack{
		// Runtime work under a layer lands on the layer that caused it.
		{Nanos: 10, Frames: []string{"runtime.mapaccess2", "servo/internal/servo/rstore.(*Store).ObserveAvatars", "servo/internal/mve.(*Server).scanTerrainDemand.func1", "servo/internal/sim.(*Loop).Step", "main.(*rig).measure"}},
		// The nearest servo frame wins, not the outermost.
		{Nanos: 20, Frames: []string{"runtime.memmove", "servo/internal/world.(*Chunk).EncodeAppend", "servo/internal/servo/rstore.(*Store).Store", "main.(*observedStore).Store", "servo/internal/mve.NewServer.func3"}},
		// Generic receivers keep their package.
		{Nanos: 5, Frames: []string{"servo/internal/cluster.(*RecordRing[go.shape.struct { Player string }]).Append", "servo/internal/cluster.(*Cluster).scan"}},
		// No servo frame at all: the runtime's own.
		{Nanos: 7, Frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		// The benchmark's own code.
		{Nanos: 3, Frames: []string{"time.Now", "main.(*rig).measure", "main.main"}},
		// Codec work on a probe goroutine is the client's, not the server's.
		{Nanos: 4, Frames: []string{"servo/internal/netproto.Decode", "servo/internal/netproto.(*Reader).Next", "main.(*probe).read"}},
		// The same codec on a server goroutine is the server's.
		{Nanos: 6, Frames: []string{"servo/internal/netproto.Encode", "servo/internal/rtserve.(*session).write", "servo/internal/rtserve.(*session).pushLoop"}},
		// The root servo package is not a layer: keep walking up.
		{Nanos: 2, Frames: []string{"servo.(*Instance).Locked", "servo/internal/rtserve.(*session).snapshot"}},
	}
	want := map[string]int64{"rstore": 10, "world": 20, "cluster": 5, layerRuntime: 7, layerLoadgen: 7, "netproto": 6, "rtserve": 2}
	if got := attribute(stacks); !reflect.DeepEqual(got, want) {
		t.Errorf("attribute = %v, want %v", got, want)
	}
}

var spinSink int

//go:noinline
func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i * i
		}
	}
}

// TestParseProfile decodes a real runtime/pprof profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(200 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.Nanos
		for _, fn := range s.Frames {
			if strings.HasSuffix(fn, ".spinForProfile") {
				inSpin += s.Nanos
				break
			}
		}
	}
	// How much resolves to the caller varies (under the race detector most
	// of the time sits in its runtime, whose stacks stop short): the test
	// is that weights and names decode at all.
	if total < int64(50*time.Millisecond) || inSpin == 0 {
		t.Errorf("decoded %v of CPU, %v of it under spinForProfile; want ≥ 50ms and some of it there", time.Duration(total), time.Duration(inSpin))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestSelfTimes checks that a slice's self time excludes its store calls.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "store.Store", Start: 1 * ms, End: 3 * ms, ID: 2, Parent: 1},
		{Name: "store.LoadMany", Start: 4 * ms, End: 5 * ms, ID: 3, Parent: 1},
		{Name: "slice", Start: 0, End: 10 * ms, ID: 1},
		{Name: "slice", Start: 10 * ms, End: 12 * ms, ID: 4},
	}
	if got := selfTimes(spans)["slice"]; got != 9*ms {
		t.Errorf("slice self time = %v, want 9ms", got)
	}
}
