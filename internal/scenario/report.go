package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"servo/internal/cluster"
)

// Metric is one named observation in a report.
type Metric struct {
	Name  string
	Value float64
}

// Check is one evaluated assertion.
type Check struct {
	Assertion
	Actual float64
	Ok     bool
}

// holds reports whether the assertion holds for the actual value.
func (a Assertion) holds(actual float64) bool {
	switch a.Op {
	case "<":
		return actual < a.Value
	case "<=":
		return actual <= a.Value
	case ">":
		return actual > a.Value
	case ">=":
		return actual >= a.Value
	}
	return false
}

// TickPoint is one tick observation: virtual time and tick duration.
type TickPoint struct {
	At, Dur time.Duration
}

// ShardSeries is one shard's per-tick series (warm-up included; the
// timestamps let consumers window it themselves). The CSV emitter renders
// it; the text report does not.
type ShardSeries struct {
	Shard int
	Ticks []TickPoint
}

// ScalePoint is one shards_active observation: the alive shard count
// sampled at every lifecycle transition (scale-up, retirement,
// failover, recovery) — the cluster's scale trajectory.
type ScalePoint struct {
	At    time.Duration
	Count int
}

// Report is the outcome of one scenario run. Its rendering is a pure
// function of the virtual-clock execution: two runs of the same spec
// produce byte-identical reports (text and CSV alike).
type Report struct {
	Name    string
	Virtual time.Duration // virtual run length
	Pass    bool
	Metrics []Metric
	Checks  []Check
	// Series holds every shard's per-tick durations for the CSV emitter.
	Series []ShardSeries
	// TileLoads holds a sharded run's per-tile attributed cost over the
	// whole run (warm-up included, like the tick series), with each
	// tile's owner at the end, in space-filling-index order, for the CSV
	// emitter.
	TileLoads []cluster.TileLoad
	// ScaleSeries is the alive-shard-count trajectory of a sharded run,
	// and ScaleEvents the journal's autoscaling records, both for the CSV
	// emitter.
	ScaleSeries []ScalePoint
	ScaleEvents []cluster.Record
}

// fmtVal renders a metric value deterministically: integral values without
// a fraction, everything else with four decimals.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// Render returns the deterministic text report.
func (r *Report) Render() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s: %s (%s virtual)\n", r.Name, verdict, r.Virtual)
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "  %-24s %s\n", m.Name, fmtVal(m.Value))
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Ok {
			status = "FAIL"
		}
		window := ""
		if c.Windowed() {
			window = fmt.Sprintf(" in [%s,%s]", c.From, c.To)
		}
		fmt.Fprintf(&b, "  assert %s %s %s%s: %s (actual %s)\n",
			c.Metric, c.Op, fmtVal(c.Value), window, status, fmtVal(c.Actual))
	}
	return b.String()
}
