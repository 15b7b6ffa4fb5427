package experiment

import (
	"fmt"
	"io"
	"time"

	"servo/internal/metrics"
	"servo/internal/mve"
)

// SCCounts is the paper's Fig. 7a workload axis: worlds with increasing
// numbers of simulated constructs.
var SCCounts = []int{0, 50, 100, 200}

// Fig7aReport is the max-players-vs-constructs matrix of Fig. 7a.
type Fig7aReport struct {
	// Max[scCount][game] is the maximum supported players.
	Max map[int]map[Game]int
}

// Fig7a measures the maximum number of supported players for each game and
// construct count (paper §IV-B, Fig. 7a).
func Fig7a(opt Options) *Fig7aReport {
	r := &Fig7aReport{Max: make(map[int]map[Game]int)}
	for _, scCount := range SCCounts {
		r.Max[scCount] = make(map[Game]int)
		for _, g := range Games {
			n := MaxPlayers(g, scCount, opt)
			r.Max[scCount][g] = n
			opt.logf("fig7a: %s sc=%d -> %d players", g, scCount, n)
		}
	}
	return r
}

// Print renders the report as the paper's bar-chart data.
func (r *Fig7aReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a — Maximum supported players for increasing simulated constructs")
	fmt.Fprintln(w, "(supported: <5% of tick samples above 50 ms)")
	t := metrics.Table{Header: []string{"SCs", "Servo", "Opencraft", "Minecraft"}}
	for _, scCount := range SCCounts {
		t.AddRow(
			fmt.Sprint(scCount),
			fmt.Sprint(r.Max[scCount][Servo]),
			fmt.Sprint(r.Max[scCount][Opencraft]),
			fmt.Sprint(r.Max[scCount][Minecraft]),
		)
	}
	fmt.Fprint(w, t.String())
}

// Fig1Report is the paper's headline comparison (Fig. 1): maximum players
// per game in the 100-construct world.
type Fig1Report struct {
	Max map[Game]int
}

// Fig1 derives the headline figure from the Fig. 7a workload at 100 SCs,
// where the paper reports Servo 150, Minecraft 90, Opencraft 10.
func Fig1(opt Options) *Fig1Report {
	r := &Fig1Report{Max: make(map[Game]int)}
	for _, g := range Games {
		r.Max[g] = MaxPlayers(g, 100, opt)
		opt.logf("fig1: %s -> %d players", g, r.Max[g])
	}
	return r
}

// Print renders the report.
func (r *Fig1Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 1 — Maximum number of supported players (100-construct world)")
	t := metrics.Table{Header: []string{"game", "max players", "delta vs Opencraft"}}
	base := r.Max[Opencraft]
	for _, g := range Games {
		t.AddRow(g.String(), fmt.Sprint(r.Max[g]), fmt.Sprintf("%+d", r.Max[g]-base))
	}
	fmt.Fprint(w, t.String())
}

// Fig7bPlayers is the player-count axis of Fig. 7b.
var Fig7bPlayers = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
	110, 120, 130, 140, 150, 160, 170, 180, 190, 200}

// Fig7bReport holds tick-duration boxplots for every (game, players) cell
// at 200 simulated constructs.
type Fig7bReport struct {
	// Box[game][players] is the tick-duration summary.
	Box map[Game]map[int]metrics.Boxplot
	// Players is the measured axis (may be thinned at low Scale).
	Players []int
}

// Fig7b measures tick-duration distributions for a varying number of
// players with 200 SCs (paper Fig. 7b). With Scale < 1 the player axis is
// thinned to every other point to bound run time.
func Fig7b(opt Options) *Fig7bReport {
	players := Fig7bPlayers
	if opt.Scale < 0.5 {
		players = []int{10, 40, 80, 120, 160, 200}
	}
	r := &Fig7bReport{Box: make(map[Game]map[int]metrics.Boxplot), Players: players}
	for _, g := range Games {
		r.Box[g] = make(map[int]metrics.Boxplot)
		for _, n := range players {
			sample := scRunTicks(g, 200, n, opt)
			r.Box[g][n] = sample.Box()
			opt.logf("fig7b: %s players=%d p95=%v", g, n, r.Box[g][n].P95)
		}
	}
	return r
}

// Print renders one row per (game, players) cell.
func (r *Fig7bReport) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7b — Tick duration distribution, 200 simulated constructs")
	fmt.Fprintln(w, "(QoS requires < 5% of samples above 50 ms; whiskers are p5/p95)")
	t := metrics.Table{Header: []string{"game", "players", "p5", "p25", "p50", "p75", "p95", "max", ">50ms"}}
	for _, g := range Games {
		for _, n := range r.Players {
			b := r.Box[g][n]
			t.AddRow(g.String(), fmt.Sprint(n),
				msCell(b.P5), msCell(b.P25), msCell(b.P50), msCell(b.P75),
				msCell(b.P95), msCell(b.Max), supportCell(b))
		}
	}
	fmt.Fprint(w, t.String())
}

func msCell(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func supportCell(b metrics.Boxplot) string {
	if b.P95 > mve.QoSThreshold {
		return "FAIL"
	}
	return "ok"
}
