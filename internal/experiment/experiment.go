// Package experiment regenerates every table and figure of the paper's
// evaluation (Section IV). Each FigNN/TableN function runs the relevant
// workload on the simulated testbed and returns a printable report whose
// rows/series correspond to the paper's artifact. The paper's values are
// quoted beside each figure's code and held by experiment_test.go;
// FIGURES.sha256 (`make figuregate`) pins every experiment's output.
//
// Experiments are deterministic in Options.Seed and scale their virtual
// duration with Options.Scale so the full suite runs in seconds as a test
// and in minutes as a faithful benchmark.
package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/core"
	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/sc"
	"servo/internal/sim"
	"servo/internal/workload"
	"servo/internal/world"
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

// buildGame assembles the system for one Game. SC offloading is serverless
// only for Servo (Table I: SC column L+S); terrain and storage modes are
// chosen per experiment via the extra toggles.
func buildGame(loop *sim.Loop, g Game, worldType string, seed int64, serverlessTG, serverlessRS bool) *core.System {
	cfg := core.Config{
		Seed:         seed,
		WorldType:    worldType,
		ServerlessTG: serverlessTG,
		ServerlessRS: serverlessRS,
	}
	switch g {
	case Opencraft:
		cfg.Profile = mve.ProfileOpencraft
	case Minecraft:
		cfg.Profile = mve.ProfileMinecraft
	default:
		cfg.Profile = mve.ProfileServo
		cfg.ServerlessSC = true
	}
	return core.New(loop, cfg)
}

// placeConstructGrid spawns n ≈250-block constructs on a grid near spawn,
// spaced so they always stay within loaded terrain for bounded-area
// players (behavior A).
func placeConstructGrid(s *mve.Server, n int) {
	const spacing = 15
	for i := 0; i < n; i++ {
		x := (i%14)*spacing - 105
		z := (i/14)*spacing - 105
		s.SpawnConstruct(sc.BuildSized(250), world.BlockPos{X: x, Y: 5, Z: z})
	}
}

// connectPlayers joins n players with fresh instances of the named
// behavior (Table I names).
func connectPlayers(s *mve.Server, n int, behavior string) {
	for i := 0; i < n; i++ {
		s.Connect(fmt.Sprintf("player-%d", i), workload.ForName(behavior))
	}
}

// measureTicks runs the server for warmup+window and returns the tick
// duration sample collected during the window only.
func measureTicks(loop *sim.Loop, s *mve.Server, warmup, window time.Duration) *metrics.Sample {
	s.Start()
	loop.RunUntil(loop.Now() + warmup)
	s.TickDurations = metrics.NewSample(int(window / mve.TickInterval))
	loop.RunUntil(loop.Now() + window)
	s.Stop()
	return s.TickDurations
}

// scRunTicks runs one SC-scalability configuration and returns the tick
// sample (paper §IV-B setup: behavior A, flat world).
func scRunTicks(g Game, scCount, players int, opt Options) *metrics.Sample {
	loop := sim.NewLoop(opt.Seed)
	sys := buildGame(loop, g, "flat", opt.Seed, false, false)
	placeConstructGrid(sys.Server, scCount)
	connectPlayers(sys.Server, players, "A")
	return measureTicks(loop, sys.Server, 15*time.Second, opt.window(10*time.Minute))
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
