package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/sc"
	"servo/internal/servo/specexec"
	"servo/internal/sim"
)

// Sec4G (paper §IV-G): serverless offloading throughput for small- and
// medium-sized simulated constructs. Each sample offloads a 100-step
// simulation of a construct and records the achieved update rate
// (steps / end-to-end latency). The paper's anchors: for 252- and
// 484-block constructs, at least 95% of samples reach 488 and 105
// updates/s — 24.4× and 5.3× the 20 Hz simulation rate.

// ConstructSizes is the §IV-G block-count axis.
var ConstructSizes = []int{252, 484}

// sec4gSteps is the simulation length per offload.
const sec4gSteps = 100

// Sec4GReport holds the update-rate distribution per construct size.
type Sec4GReport struct {
	// RatePerSec[blocks] is the distribution of achieved simulation
	// rates in updates (steps) per second.
	RatePerSec map[int]*metrics.Sample
	// P5Rate[blocks] is the 5th-percentile rate (the paper's "at least
	// 95% of samples" bound).
	P5Rate map[int]float64
	// SpeedupVsTickRate[blocks] is P5Rate relative to R = 20 Hz.
	SpeedupVsTickRate map[int]float64
}

// Sec4G measures offloaded-simulation throughput per construct size.
func Sec4G(opt Options) *Sec4GReport {
	r := &Sec4GReport{
		RatePerSec:        make(map[int]*metrics.Sample),
		P5Rate:            make(map[int]float64),
		SpeedupVsTickRate: make(map[int]float64),
	}
	samples := int(200 * opt.Scale * 10)
	if samples < 60 {
		samples = 60
	}
	for _, blocks := range ConstructSizes {
		loop := sim.NewLoop(opt.Seed)
		platform := faas.NewPlatform(loop)
		platform.Register(core.SCFunctionName, core.DefaultSCFnConfig(), specexec.NewHandler())
		construct := sc.BuildSized(blocks)

		rates := metrics.NewSample(samples)
		for i := 0; i < samples; i++ {
			i := i
			// Offloads spaced 5 s apart: the construct advances
			// between requests, as in the live system.
			loop.After(time.Duration(i)*5*time.Second, func() {
				req := specexec.Request{
					ConstructID: 1,
					BaseTick:    uint64(i * sec4gSteps),
					Steps:       sec4gSteps,
					Layout:      construct.EncodeLayout(),
				}
				platform.Invoke(core.SCFunctionName, specexec.EncodeRequest(req), func(inv faas.Invocation) {
					if inv.Err != nil {
						return
					}
					rate := sec4gSteps / inv.Latency.Seconds()
					// Store rates as nanoseconds for the Sample type.
					rates.Add(time.Duration(rate * float64(time.Nanosecond) * 1000))
				})
			})
		}
		loop.Run()
		r.RatePerSec[blocks] = rates
		r.P5Rate[blocks] = float64(rates.Percentile(5)) / 1000
		r.SpeedupVsTickRate[blocks] = r.P5Rate[blocks] / 20
		opt.logf("sec4g: %d blocks p5 rate=%.0f/s (%.1fx tick rate)",
			blocks, r.P5Rate[blocks], r.SpeedupVsTickRate[blocks])
	}
	return r
}

// Print renders the throughput table.
func (r *Sec4GReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Section IV-G — Offloaded simulation rate for small/medium constructs")
	fmt.Fprintln(w, "(100-step offloads; rate = steps / end-to-end invocation latency)")
	t := metrics.Table{Header: []string{"blocks", "p5 rate/s", "median rate/s", "speedup vs 20 Hz", "n"}}
	for _, blocks := range ConstructSizes {
		s := r.RatePerSec[blocks]
		t.AddRow(fmt.Sprint(blocks),
			fmt.Sprintf("%.0f", r.P5Rate[blocks]),
			fmt.Sprintf("%.0f", float64(s.Percentile(50))/1000),
			fmt.Sprintf("%.1fx", r.SpeedupVsTickRate[blocks]),
			fmt.Sprint(s.Len()))
	}
	fmt.Fprint(w, t.String())
}
