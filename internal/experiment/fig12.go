package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/metrics"
	"servo/internal/mve"
	"servo/internal/scenario"
)

// Fig12 (paper §IV-E): serverless terrain generation scalability. Players
// join one every ten seconds and walk away from spawn in a star pattern at
// a fixed speed (S3 or S8). The supported-player count is where the
// rolling 95th-percentile tick duration first crosses 50 ms. Fig. 12b
// repeats the comparison with the random behavior R.

// fig12MaxJoiners bounds the joining players. The paper plots up to 50;
// the crossings it reports all fall below 20, so 22 players bounds memory
// (each star player keeps ~400 chunks loaded) while covering the result.
const fig12MaxJoiners = 22

// Fig12aSeries is one (game, workload) run.
type Fig12aSeries struct {
	// TickWindows summarises tick durations per join interval, i.e. the
	// i-th window corresponds to i+1 connected players.
	TickWindows []metrics.WindowPoint
	// SupportedPlayers is the player count before the p95 first exceeded
	// the QoS bound (or the max tested if it never did).
	SupportedPlayers int
}

// Fig12aReport maps workload ("S3", "S8") and game to the series.
type Fig12aReport struct {
	Series map[string]map[Game]*Fig12aSeries
}

// Fig12a runs the S3 and S8 ramp-up workloads for Servo (serverless TG
// and RS, per Table I) and Opencraft (all local).
func Fig12a(opt Options) *Fig12aReport {
	r := &Fig12aReport{Series: make(map[string]map[Game]*Fig12aSeries)}
	for _, wl := range []string{"S3", "S8"} {
		r.Series[wl] = make(map[Game]*Fig12aSeries)
		for _, g := range []Game{Servo, Opencraft} {
			r.Series[wl][g] = fig12aRun(g, wl, opt)
			opt.logf("fig12a: %s %s supports %d", wl, g, r.Series[wl][g].SupportedPlayers)
		}
	}
	return r
}

// joinInterval is the paper's player arrival period.
const joinInterval = 10 * time.Second

// fig12Spec is one terrain-scalability cell: the default world, with
// terrain generation and storage serverless only for Servo (Table I).
func fig12Spec(g Game, seed int64, warmup, window time.Duration) *scenario.Spec {
	spec := cellSpec(g, "default", seed, warmup, window)
	spec.Backend.Terrain = g == Servo
	spec.Backend.Storage = g == Servo
	return spec
}

func fig12aRun(g Game, wl string, opt Options) *Fig12aSeries {
	// The engine's default warm-up resets nothing this figure reads: the
	// tick series spans the whole run.
	spec := fig12Spec(g, opt.Seed, 0, time.Duration(fig12MaxJoiners+2)*joinInterval)
	for i := 0; i < fig12MaxJoiners; i++ {
		spec.Fleet = append(spec.Fleet, scenario.FleetGroup{
			Count: 1, Behavior: wl, JoinAt: scenario.Span(time.Duration(i) * joinInterval),
		})
	}
	srv := runCell(spec).Shards[0].Server

	windows := srv.TickSeries.Windows(joinInterval)
	s := &Fig12aSeries{TickWindows: windows, SupportedPlayers: fig12MaxJoiners}
	for i, wp := range windows {
		if wp.P95 > mve.QoSThreshold {
			// Window i spans the interval with ~i+1 players connected;
			// the last supported count is i.
			s.SupportedPlayers = i
			break
		}
	}
	return s
}

// Print renders the per-window p95 series and the supported counts.
func (r *Fig12aReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 12a — Tick duration vs players joining every 10 s (star workloads)")
	for _, wl := range []string{"S3", "S8"} {
		fmt.Fprintf(w, "workload %s (players move at %s blocks/s):\n", wl, wl[1:])
		t := metrics.Table{Header: []string{"players", "Servo mean", "Servo p95", "Opencraft mean", "Opencraft p95"}}
		sv, oc := r.Series[wl][Servo], r.Series[wl][Opencraft]
		n := len(sv.TickWindows)
		if len(oc.TickWindows) < n {
			n = len(oc.TickWindows)
		}
		for i := 0; i < n; i++ {
			t.AddRow(fmt.Sprint(i+1),
				msCell(sv.TickWindows[i].Mean), msCell(sv.TickWindows[i].P95),
				msCell(oc.TickWindows[i].Mean), msCell(oc.TickWindows[i].P95))
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintf(w, "supported players: Servo %d, Opencraft %d\n",
			sv.SupportedPlayers, oc.SupportedPlayers)
	}
}

// Fig12bReport holds the random-workload repetition results.
type Fig12bReport struct {
	// Supported[game] lists the supported-player count of each
	// repetition.
	Supported map[Game][]int
	Reps      int
}

// fig12bPlayers is the grid searched per repetition.
var fig12bPlayers = []int{5, 10, 15, 20, 25, 30, 35, 40}

// Fig12b repeats the terrain-scalability comparison with the random
// behavior R (paper: 20 repetitions; scaled down with opt.Scale).
func Fig12b(opt Options) *Fig12bReport {
	reps := int(20 * opt.Scale * 2)
	if reps < 4 {
		reps = 4
	}
	r := &Fig12bReport{Supported: make(map[Game][]int), Reps: reps}
	for _, g := range []Game{Servo, Opencraft} {
		for rep := 0; rep < reps; rep++ {
			seed := opt.Seed + int64(rep)*1000
			supported := 0
			for _, n := range fig12bPlayers {
				spec := fig12Spec(g, seed, 10*time.Second, opt.window(3*time.Minute))
				spec.Fleet = []scenario.FleetGroup{{Count: n, Behavior: "R"}}
				if !playersSupported(runCell(spec).Shards[0].Server.TickDurations) {
					break
				}
				supported = n
			}
			r.Supported[g] = append(r.Supported[g], supported)
			opt.logf("fig12b: %s rep=%d supported=%d", g, rep, supported)
		}
	}
	return r
}

// Mean returns the mean supported players for a game.
func (r *Fig12bReport) Mean(g Game) float64 {
	vals := r.Supported[g]
	if len(vals) == 0 {
		return 0
	}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

// Print renders the distribution of supported players per game.
func (r *Fig12bReport) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 12b — Maximum supported players, random behavior R (%d repetitions)\n", r.Reps)
	t := metrics.Table{Header: []string{"game", "mean", "min", "max", "runs"}}
	for _, g := range []Game{Servo, Opencraft} {
		vals := r.Supported[g]
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		t.AddRow(g.String(), fmt.Sprintf("%.1f", r.Mean(g)), fmt.Sprint(min), fmt.Sprint(max), fmt.Sprint(len(vals)))
	}
	fmt.Fprint(w, t.String())
}
