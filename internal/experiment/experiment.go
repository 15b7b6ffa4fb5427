// Package experiment regenerates every table and figure of the paper's
// evaluation (Section IV). Each FigNN/TableN function runs the relevant
// workload on the simulated testbed and returns a printable report whose
// rows/series correspond to the paper's artifact. The paper's values are
// quoted beside each figure's code and held by experiment_test.go;
// FIGURES.sha256 (`make figuregate`) pins every experiment's output.
//
// A full-system figure cell (Figs. 1, 7a, 7b, 8, 9, 12a and 12b) is a
// scenario.Spec that scenario.Run executes through the cluster; this
// package keeps only the sweeps over cells (player counts, SC counts,
// leads, steps, seeds), reads shard 0's samples off the system the engine
// returns, and prints. Figs. 10 and 13 and abl-loop assemble their system
// themselves, for the reasons stated beside them, and still drive it
// through the cluster. The component-level figures (3, 11, IV-G,
// abl-prefetch, abl-platform) drive one component alone.
//
// Experiments are deterministic in Options.Seed and scale their virtual
// duration with Options.Scale so the full suite runs in seconds as a test
// and in minutes as a faithful benchmark.
package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	"servo/internal/core"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/scenario"
)

// Game identifies one of the compared systems.
type Game int

// The systems under comparison.
const (
	Opencraft Game = iota + 1
	Minecraft
	Servo
)

// String implements fmt.Stringer.
func (g Game) String() string {
	switch g {
	case Opencraft:
		return "Opencraft"
	case Minecraft:
		return "Minecraft"
	case Servo:
		return "Servo"
	}
	return "unknown"
}

// Games lists the systems in the paper's presentation order.
var Games = []Game{Servo, Opencraft, Minecraft}

// Options controls experiment scale and seeding.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Scale multiplies measurement windows: 1.0 runs the paper's
	// durations (≈10 virtual minutes per run); the default used by tests
	// and benches is shorter.
	Scale float64
	// Log, if non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// window returns the scaled duration of a paper-length measurement.
func (o Options) window(paper time.Duration) time.Duration {
	s := o.Scale
	if s <= 0 {
		s = 0.1
	}
	d := time.Duration(float64(paper) * s)
	if d < 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

// cellSpec is the scenario of one full-system figure cell: game g's
// profile, with construct simulation offloaded only for Servo (Table I:
// SC column L+S), on worldType, measured for window after warmup. The
// figure adds its terrain and storage backends, constructs and fleet.
func cellSpec(g Game, worldType string, seed int64, warmup, window time.Duration) *scenario.Spec {
	return &scenario.Spec{
		Name:     "cell",
		Seed:     seed,
		Duration: scenario.Span(warmup + window),
		Warmup:   scenario.Span(warmup),
		World:    scenario.WorldSpec{Type: worldType, Profile: strings.ToLower(g.String())},
		Backend:  scenario.BackendSpec{Constructs: g == Servo},
	}
}

// runCell executes a cell through the scenario engine and returns the
// stopped system: its tick, efficiency and function samples cover the
// post-warm-up window only.
func runCell(spec *scenario.Spec) *core.System {
	_, sys, err := scenario.Run(spec, nil)
	if err != nil {
		panic(err) // cells are built above, never read from input
	}
	return sys
}

// scSpec is one SC-scalability cell (paper §IV-B setup: behavior A, flat
// world, scCount 250-block constructs on the engine's construct grid).
func scSpec(g Game, scCount, players int, opt Options) *scenario.Spec {
	spec := cellSpec(g, "flat", opt.Seed, 15*time.Second, opt.window(10*time.Minute))
	if scCount > 0 {
		spec.Constructs = []scenario.ConstructGroup{{Count: scCount, Blocks: 250}}
	}
	spec.Fleet = []scenario.FleetGroup{{Count: players, Behavior: "A"}}
	return spec
}

// scRunTicks runs one SC-scalability cell and returns its tick sample.
func scRunTicks(g Game, scCount, players int, opt Options) *metrics.Sample {
	return runCell(scSpec(g, scCount, players, opt)).Shards[0].Server.TickDurations
}

// playersSupported reports whether the configuration meets the QoS
// criterion.
func playersSupported(sample *metrics.Sample) bool {
	return sample.FracAbove(mve.QoSThreshold) < mve.QoSFraction
}

// MaxPlayers finds the paper's "maximum number of supported players" for
// one game and SC count: the largest player count (on the paper's grid of
// multiples of 10, refined below 10) for which fewer than 5% of tick
// samples exceed 50 ms.
func MaxPlayers(g Game, scCount int, opt Options) int {
	supported := func(n int) bool {
		return playersSupported(scRunTicks(g, scCount, n, opt))
	}
	// Binary search over multiples of 10 in [0, 200] (monotone by
	// construction of the workload).
	lo, hi := 0, 20 // in tens
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if supported(mid * 10) {
			lo = mid
		} else {
			hi = mid - 1
		}
		opt.logf("  maxplayers %s sc=%d: <=%d", g, scCount, hi*10)
	}
	if lo > 0 {
		return lo * 10
	}
	// Refine below 10 players, as the paper does.
	for n := 9; n >= 1; n-- {
		if supported(n) {
			return n
		}
	}
	return 0
}
