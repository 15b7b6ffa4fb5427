// Package metrics provides the measurement primitives used by the Servo
// experiment harness: duration samples with percentile summaries, boxplot
// statistics matching the paper's figures, inverse-CDF exports (Fig. 13),
// rolling-window time series (Fig. 10, Fig. 12a), and simple counters and
// meters for invocation-rate and billing accounting (Fig. 9).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates duration observations and computes order statistics.
// The zero value is ready to use.
type Sample struct {
	values []time.Duration
	sorted bool
}

// NewSample returns a Sample with capacity preallocated for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]time.Duration, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v time.Duration) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddAll records every observation in vs.
func (s *Sample) AddAll(vs []time.Duration) {
	s.values = append(s.values, vs...)
	s.sorted = false
}

// Len returns the number of observations recorded.
func (s *Sample) Len() int { return len(s.values) }

// Values returns a copy of the raw observations in insertion order is not
// guaranteed once percentiles have been computed; callers should treat the
// result as an unordered multiset.
func (s *Sample) Values() []time.Duration {
	out := make([]time.Duration, len(s.values))
	copy(out, s.values)
	return out
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[len(s.values)-1]
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.values)))
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// FracAbove returns the fraction of observations strictly greater than
// threshold. This implements the paper's supported-players criterion
// ("fewer than 5% of tick duration samples exceed 50 ms").
func (s *Sample) FracAbove(threshold time.Duration) float64 {
	if len(s.values) == 0 {
		return 0
	}
	return float64(s.CountAbove(threshold)) / float64(len(s.values))
}

// CountAbove returns the number of observations strictly greater than
// threshold (the numerator of FracAbove, exposed for exact pass/fail
// reporting in the scenario harness).
func (s *Sample) CountAbove(threshold time.Duration) int {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	i := sort.Search(len(s.values), func(i int) bool { return s.values[i] > threshold })
	return len(s.values) - i
}

// Boxplot is the five-point summary the paper's figures use: whiskers at the
// 5th and 95th percentiles, the interquartile box, the median, plus mean and
// max annotations.
type Boxplot struct {
	P5, P25, P50, P75, P95 time.Duration
	Mean, Max              time.Duration
	N                      int
}

// Box computes the Boxplot summary of the sample.
func (s *Sample) Box() Boxplot {
	return Boxplot{
		P5:   s.Percentile(5),
		P25:  s.Percentile(25),
		P50:  s.Percentile(50),
		P75:  s.Percentile(75),
		P95:  s.Percentile(95),
		Mean: s.Mean(),
		Max:  s.Max(),
		N:    s.Len(),
	}
}

// String renders the boxplot as a single table row.
func (b Boxplot) String() string {
	return fmt.Sprintf("p5=%s p25=%s p50=%s p75=%s p95=%s mean=%s max=%s n=%d",
		ms(b.P5), ms(b.P25), ms(b.P50), ms(b.P75), ms(b.P95), ms(b.Mean), ms(b.Max), b.N)
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// ICDFPoint is one point of an inverse cumulative distribution function:
// Frac of the observations are strictly greater than Latency.
type ICDFPoint struct {
	Latency time.Duration
	Frac    float64
}

// ICDF returns the inverse CDF evaluated at the given fractions (e.g.
// 1, 0.1, 0.01, 1e-3, 1e-4 for the log-scale axis of Fig. 13). For each
// fraction f it reports the smallest latency such that at most f of the
// observations exceed it.
func (s *Sample) ICDF(fracs []float64) []ICDFPoint {
	out := make([]ICDFPoint, 0, len(fracs))
	for _, f := range fracs {
		p := (1 - f) * 100
		out = append(out, ICDFPoint{Latency: s.Percentile(p), Frac: f})
	}
	return out
}

// TimeSeries records (time, duration) observations and supports
// rolling-window summaries, matching the 2.5-second windows of Fig. 10 and
// Fig. 12a.
type TimeSeries struct {
	ts []time.Duration // observation times since epoch
	vs []time.Duration // observed values
}

// Add appends an observation at time t.
func (ts *TimeSeries) Add(t, v time.Duration) {
	ts.ts = append(ts.ts, t)
	ts.vs = append(ts.vs, v)
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int { return len(ts.ts) }

// Points returns copies of the observation times and values, in
// observation order (the scenario CSV emitter exports them per shard).
func (ts *TimeSeries) Points() (times, values []time.Duration) {
	times = append([]time.Duration(nil), ts.ts...)
	values = append([]time.Duration(nil), ts.vs...)
	return times, values
}

// ValuesBetween returns the values observed in the inclusive time window
// [from, to], in observation order (time-windowed scenario assertions).
func (ts *TimeSeries) ValuesBetween(from, to time.Duration) []time.Duration {
	var out []time.Duration
	for i, t := range ts.ts {
		if t >= from && t <= to {
			out = append(out, ts.vs[i])
		}
	}
	return out
}

// WindowPoint summarises one rolling window.
type WindowPoint struct {
	T                  time.Duration // window end time
	Mean, P5, P95, P50 time.Duration
	N                  int
}

// Windows partitions the series into consecutive windows of the given width
// and summarises each. Empty windows are skipped.
func (ts *TimeSeries) Windows(width time.Duration) []WindowPoint {
	if len(ts.ts) == 0 || width <= 0 {
		return nil
	}
	var out []WindowPoint
	var cur Sample
	windowEnd := ts.ts[0] + width
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, WindowPoint{
				T:    windowEnd,
				Mean: cur.Mean(),
				P5:   cur.Percentile(5),
				P50:  cur.Percentile(50),
				P95:  cur.Percentile(95),
				N:    cur.Len(),
			})
		}
		cur = Sample{}
	}
	for i, t := range ts.ts {
		for t >= windowEnd {
			flush()
			windowEnd += width
		}
		cur.Add(ts.vs[i])
	}
	flush()
	return out
}

// ImbalanceRatio returns max/mean over per-shard load values — the
// load_imbalance metric (1 = perfectly balanced). Empty or all-zero
// input returns 1: a cluster doing nothing is balanced. Callers filter
// out shards that should not count (dead, or empty in a window) before
// calling; the cluster controller, the end-of-run report, and windowed
// assertions all share this definition.
func ImbalanceRatio(loads []float64) float64 {
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if len(loads) == 0 || sum == 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}

// Counter is a monotonically increasing event count.
type Counter struct{ n int64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Meter tracks a rate of events over simulated time.
type Meter struct {
	events []time.Duration
}

// Mark records an event at time t.
func (m *Meter) Mark(t time.Duration) { m.events = append(m.events, t) }

// Count returns the total number of marked events.
func (m *Meter) Count() int { return len(m.events) }

// RatePerMinute returns the average event rate over [start, end].
func (m *Meter) RatePerMinute(start, end time.Duration) float64 {
	if end <= start {
		return 0
	}
	n := 0
	for _, t := range m.events {
		if t >= start && t <= end {
			n++
		}
	}
	return float64(n) / (float64(end-start) / float64(time.Minute))
}

// Table is a minimal fixed-width text table used by the experiment reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
