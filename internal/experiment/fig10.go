package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sim"
	"servo/internal/terrain"
	"servo/internal/workload"
)

// Fig10 (paper §IV-D): terrain-generation QoS under the Sinc workload —
// five players moving away from spawn with speed increasing by one block/s
// every 200 s, on the default world. Servo generates terrain in serverless
// functions; Opencraft on its local worker pool.

// Fig10Series is one game's time series.
type Fig10Series struct {
	// ViewRange samples the distance to the closest missing chunk (the
	// QoS metric; 128 = full view distance) once per second.
	ViewRange []metrics.WindowPoint
	// TickWindows summarises tick durations in 2.5-second windows.
	TickWindows []metrics.WindowPoint
}

// Fig10Report holds both games' series.
type Fig10Report struct {
	Series map[Game]*Fig10Series
}

// fig10RampEvery scales the Sinc speed-up period with the experiment
// window so every speed band is exercised at any Scale.
func fig10Ramp(window time.Duration) time.Duration {
	return window / 6 // six speed bands, as in the paper's 1200s/200s
}

// Fig10 runs the Sinc QoS experiment for Servo (serverless TG) and
// Opencraft (local TG).
func Fig10(opt Options) *Fig10Report {
	window := opt.window(20 * time.Minute)
	// The baseline's generation deficit needs time to eat through the
	// 128-block view margin; below ten virtual minutes the collapse the
	// paper shows cannot physically appear.
	if window < 10*time.Minute {
		window = 10 * time.Minute
	}
	r := &Fig10Report{Series: make(map[Game]*Fig10Series)}
	for _, g := range []Game{Servo, Opencraft} {
		r.Series[g] = fig10Run(g, window, opt)
		opt.logf("fig10: %s done", g)
	}
	return r
}

// fig10Run stays Go rather than a scenario cell: its Sinc walkers speed
// up every window/6 so every speed band fits any Scale, while the spec
// language's "Sinc" behaviour ramps at the paper's fixed 200 s, and a
// ramp key would be a knob only this figure sets.
func fig10Run(g Game, window time.Duration, opt Options) *Fig10Series {
	loop := sim.NewLoop(opt.Seed)
	cfg := core.Config{Seed: opt.Seed, WorldType: "default", Profile: mve.ProfileOpencraft}
	if g == Servo {
		cfg.Profile, cfg.ServerlessSC, cfg.ServerlessTG = mve.ProfileServo, true, true
	}
	sys := core.New(loop, cfg)
	srv := sys.Shards[0].Server
	for i := 0; i < 5; i++ {
		sys.Cluster.Connect(fmt.Sprintf("sinc-%d", i), &workload.Star{Speed: 1, RampEvery: fig10Ramp(window)})
	}
	var view metrics.TimeSeries
	var sample func()
	sample = func() {
		view.Add(loop.Now(), time.Duration(srv.MinViewMargin()))
		loop.After(time.Second, sample)
	}
	loop.After(time.Second, sample)
	sys.Cluster.Start()
	loop.RunUntil(window)
	sys.Cluster.Stop()
	return &Fig10Series{
		ViewRange:   view.Windows(window / 40),
		TickWindows: srv.TickSeries.Windows(window / 40),
	}
}

// Fig10Report Print renders the two series side by side.
func (r *Fig10Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 10 — Serverless terrain generation QoS (Sinc workload, 5 players)")
	fmt.Fprintln(w, "(a) distance to closest unloaded chunk (blocks; 128 = full view distance)")
	t := metrics.Table{Header: []string{"t", "Servo view", "Opencraft view"}}
	sv, oc := r.Series[Servo], r.Series[Opencraft]
	n := len(sv.ViewRange)
	if len(oc.ViewRange) < n {
		n = len(oc.ViewRange)
	}
	for i := 0; i < n; i++ {
		t.AddRow(
			fmt.Sprintf("%.0fs", sv.ViewRange[i].T.Seconds()),
			fmt.Sprintf("%d", int(sv.ViewRange[i].Mean)),
			fmt.Sprintf("%d", int(oc.ViewRange[i].Mean)),
		)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "(b) tick duration (ms, mean and p95 per window; QoS bound 50 ms)")
	t2 := metrics.Table{Header: []string{"t", "Servo mean", "Servo p95", "Opencraft mean", "Opencraft p95"}}
	n2 := len(sv.TickWindows)
	if len(oc.TickWindows) < n2 {
		n2 = len(oc.TickWindows)
	}
	for i := 0; i < n2; i++ {
		t2.AddRow(
			fmt.Sprintf("%.0fs", sv.TickWindows[i].T.Seconds()),
			msCell(sv.TickWindows[i].Mean), msCell(sv.TickWindows[i].P95),
			msCell(oc.TickWindows[i].Mean), msCell(oc.TickWindows[i].P95),
		)
	}
	fmt.Fprint(w, t2.String())
}

// --- Fig. 11: generation latency vs function memory --------------------------

// MemoryConfigs is the Fig. 11 memory axis (MB).
var MemoryConfigs = []int{320, 512, 1024, 2048, 4096, 10240}

// Fig11Report holds per-memory-configuration generation latency and the
// normalized performance-to-cost ratio of Fig. 11b.
type Fig11Report struct {
	Latency   map[int]metrics.Boxplot
	CostRatio map[int]float64 // normalized to [0, 1], higher is better
}

// Fig11 measures single-chunk generation latency on the FaaS platform for
// each memory configuration (paper §IV-D, Fig. 11).
func Fig11(opt Options) *Fig11Report {
	r := &Fig11Report{Latency: make(map[int]metrics.Boxplot), CostRatio: make(map[int]float64)}
	invocations := int(100 * opt.Scale * 10)
	if invocations < 40 {
		invocations = 40
	}
	perf := make(map[int]float64)
	for _, mem := range MemoryConfigs {
		loop := sim.NewLoop(opt.Seed)
		platform := faas.NewPlatform(loop)
		cfg := core.DefaultTGFnConfig()
		cfg.MemoryMB = mem
		gen := terrain.Default{Seed: opt.Seed}
		fn := platform.Register("gen", cfg, func([]byte) ([]byte, int) {
			return nil, gen.WorkUnits()
		})
		for i := 0; i < invocations; i++ {
			// Spread invocations ~3 s apart so keep-alive expiry and
			// cold starts appear, as on the real platform.
			i := i
			loop.After(time.Duration(i)*3*time.Second, func() {
				platform.Invoke("gen", []byte{byte(i), byte(i >> 8)}, func(faas.Invocation) {})
			})
		}
		loop.Run()
		b := fn.Latency.Box()
		r.Latency[mem] = b
		perf[mem] = 1 / b.Mean.Seconds() / float64(mem) // performance per MB
		opt.logf("fig11: mem=%d mean=%v max=%v", mem, b.Mean, b.Max)
	}
	// Normalize performance-to-cost to the best configuration.
	best := 0.0
	for _, v := range perf {
		if v > best {
			best = v
		}
	}
	for mem, v := range perf {
		r.CostRatio[mem] = v / best
	}
	return r
}

// Print renders both panels.
func (r *Fig11Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 11 — Serverless terrain generation vs function memory (AWS Lambda model)")
	t := metrics.Table{Header: []string{"memory MB", "mean", "p25", "p50", "p75", "max", "perf/cost"}}
	for _, mem := range MemoryConfigs {
		b := r.Latency[mem]
		t.AddRow(fmt.Sprint(mem),
			secCell(b.Mean), secCell(b.P25), secCell(b.P50), secCell(b.P75), secCell(b.Max),
			fmt.Sprintf("%.2f", r.CostRatio[mem]))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "(latency in seconds per 16x16x256 chunk)")
}

func secCell(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
