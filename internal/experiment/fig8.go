package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/scenario"
)

// Fig8/Fig9 setup (paper §IV-C, Table I row "SC: Latency hiding"): a flat
// world with a small population of offloaded constructs, measuring
// per-invocation efficiency, end-to-end invocation latency, and invocation
// rate for varying tick leads and simulation lengths.

// TickLeads is the Fig. 8 (left) axis.
var TickLeads = []int{0, 10, 20, 40}

// SimLengths is the Fig. 8 (right) / Fig. 9 axis.
var SimLengths = []int{50, 100, 200}

// fig89Constructs is the number of offloaded constructs driving the
// invocation stream, sized so the §IV-C cost analysis lands in the paper's
// $0.216–$0.244/hour band.
const fig89Constructs = 15

// fig89ConstructBlocks sizes the construct so one simulation step costs
// ≈7 ms of single-vCPU function time, putting the 200-step invocation past
// the 20-tick (1000 ms) lead — the regime where the paper observes
// efficiency dropping below 1.0 (Fig. 8 right, Fig. 9 left: 1459 ms mean
// latency at 200 steps).
const fig89ConstructBlocks = 1150

// specSpec is one latency-hiding cell: fig89Constructs offloaded
// constructs and one bounded player (Table I), with loop detection off.
// The 30 s warm-up runs past the activation invocations (whose
// efficiency is dominated by the deliberate local-fallback period) and
// the first cold starts.
func specSpec(lead, steps int, opt Options) *scenario.Spec {
	spec := cellSpec(Servo, "flat", opt.Seed, 30*time.Second, opt.window(5*time.Minute))
	spec.Backend.SpecExec = &scenario.SpecExecSpec{TickLead: &lead, Steps: &steps, DetectLoops: new(bool)}
	spec.Constructs = []scenario.ConstructGroup{{Count: fig89Constructs, Blocks: fig89ConstructBlocks}}
	spec.Fleet = []scenario.FleetGroup{{Count: 1, Behavior: "A"}}
	return spec
}

// EffSummary summarises an efficiency distribution.
type EffSummary struct {
	Median, P25, P75, Min float64
	FracPerfect           float64 // fraction of invocations at efficiency 1.0
	N                     int
}

func summarizeEff(eff []float64) EffSummary {
	if len(eff) == 0 {
		return EffSummary{}
	}
	s := append([]float64(nil), eff...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	perfect := 0
	for _, e := range s {
		if e >= 0.9999 {
			perfect++
		}
	}
	return EffSummary{
		Median:      q(0.5),
		P25:         q(0.25),
		P75:         q(0.75),
		Min:         s[0],
		FracPerfect: float64(perfect) / float64(len(s)),
		N:           len(s),
	}
}

// Fig8Report holds both panels of Fig. 8.
type Fig8Report struct {
	// ByLead is the left panel: efficiency vs tick lead (100 steps).
	ByLead map[int]EffSummary
	// BySteps is the right panel: efficiency vs simulation length
	// (20-tick lead).
	BySteps map[int]EffSummary
}

// Fig8 measures speculative-execution efficiency (paper §IV-C, Fig. 8).
func Fig8(opt Options) *Fig8Report {
	r := &Fig8Report{ByLead: make(map[int]EffSummary), BySteps: make(map[int]EffSummary)}
	for _, lead := range TickLeads {
		sys := runCell(specSpec(lead, 100, opt))
		r.ByLead[lead] = summarizeEff(sys.Shards[0].SpecExec.Efficiency)
		opt.logf("fig8: lead=%d median=%.2f", lead, r.ByLead[lead].Median)
	}
	for _, steps := range SimLengths {
		sys := runCell(specSpec(20, steps, opt))
		r.BySteps[steps] = summarizeEff(sys.Shards[0].SpecExec.Efficiency)
		opt.logf("fig8: steps=%d median=%.2f", steps, r.BySteps[steps].Median)
	}
	return r
}

// Print renders both panels.
func (r *Fig8Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 — Efficiency of offloaded simulation")
	fmt.Fprintln(w, "Left: varying tick lead (100-step invocations)")
	t := metrics.Table{Header: []string{"tick lead", "median", "p25", "p75", "min", "frac@1.0", "n"}}
	for _, lead := range TickLeads {
		e := r.ByLead[lead]
		t.AddRow(fmt.Sprint(lead), f2(e.Median), f2(e.P25), f2(e.P75), f2(e.Min), f2(e.FracPerfect), fmt.Sprint(e.N))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "Right: varying simulation length (20-tick lead)")
	t2 := metrics.Table{Header: []string{"steps", "median", "p25", "p75", "min", "frac@1.0", "n"}}
	for _, steps := range SimLengths {
		e := r.BySteps[steps]
		t2.AddRow(fmt.Sprint(steps), f2(e.Median), f2(e.P25), f2(e.P75), f2(e.Min), f2(e.FracPerfect), fmt.Sprint(e.N))
	}
	fmt.Fprint(w, t2.String())
}

func f2(v float64) string { return fmt.Sprintf("%.3f", v) }

// Fig9Report holds invocation latency and rate vs simulation length, plus
// the §IV-C cost analysis.
type Fig9Report struct {
	Latency     map[int]metrics.Boxplot // per simulation length
	PerMinute   map[int]float64
	DollarsHour map[int]float64
}

// Fig9 measures end-to-end invocation latency and invocations per minute
// for varying simulation lengths (paper Fig. 9), and derives the hourly
// cost the paper reports ($0.216–$0.244/hour).
func Fig9(opt Options) *Fig9Report {
	r := &Fig9Report{
		Latency:     make(map[int]metrics.Boxplot),
		PerMinute:   make(map[int]float64),
		DollarsHour: make(map[int]float64),
	}
	for _, steps := range SimLengths {
		spec := specSpec(20, steps, opt)
		fn := runCell(spec).SCFn
		r.Latency[steps] = fn.Latency.Box()
		r.PerMinute[steps] = fn.Invocations.RatePerMinute(spec.Warmup.D(), spec.Duration.D())
		// Cost over the measurement window: mean latency × rate × memory
		// pricing, the paper's own calculation.
		gbSeconds := r.Latency[steps].Mean.Seconds() * r.PerMinute[steps] * 60 *
			float64(fn.Configuration().MemoryMB) / 1024
		r.DollarsHour[steps] = gbSeconds*faas.DollarsPerGBSecond +
			r.PerMinute[steps]*60*faas.DollarsPerRequest
		opt.logf("fig9: steps=%d mean=%v rate=%.0f/min $%.3f/h",
			steps, r.Latency[steps].Mean, r.PerMinute[steps], r.DollarsHour[steps])
	}
	return r
}

// Print renders both panels plus the cost row.
func (r *Fig9Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9 — Invocation latency and rate for varying simulation lengths")
	t := metrics.Table{Header: []string{"steps", "mean", "p5", "p50", "p95", "max", "invocations/min", "$/hour"}}
	for _, steps := range SimLengths {
		b := r.Latency[steps]
		t.AddRow(fmt.Sprint(steps), msCell(b.Mean), msCell(b.P5), msCell(b.P50),
			msCell(b.P95), msCell(b.Max),
			fmt.Sprintf("%.0f", r.PerMinute[steps]),
			fmt.Sprintf("%.3f", r.DollarsHour[steps]))
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "(latency in ms; cost from AWS Lambda GB-second + per-request pricing)")
}
