package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileExactValues(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{50, time.Duration(50.5 * float64(time.Millisecond))},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmptySample(t *testing.T) {
	var s Sample
	if got := s.Percentile(50); got != 0 {
		t.Fatalf("empty Percentile = %v, want 0", got)
	}
	if got := s.Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
	if got := s.FracAbove(0); got != 0 {
		t.Fatalf("empty FracAbove = %v, want 0", got)
	}
}

func TestPercentileMonotoneQuick(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		p1 := r.Float64() * 100
		p2 := r.Float64() * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return s.Percentile(p1) <= s.Percentile(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAgainstSortedReferenceQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		vals := make([]time.Duration, len(raw))
		for i, v := range raw {
			vals[i] = time.Duration(v)
			s.Add(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return s.Percentile(0) == vals[0] && s.Percentile(100) == vals[len(vals)-1] &&
			s.Min() == vals[0] && s.Max() == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFracAbove(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.FracAbove(95 * time.Millisecond); got != 0.05 {
		t.Errorf("FracAbove(95ms) = %v, want 0.05", got)
	}
	if got := s.FracAbove(0); got != 1.0 {
		t.Errorf("FracAbove(0) = %v, want 1", got)
	}
	if got := s.FracAbove(time.Second); got != 0 {
		t.Errorf("FracAbove(1s) = %v, want 0", got)
	}
	// Threshold is strict: values equal to the threshold do not count.
	if got := s.FracAbove(100 * time.Millisecond); got != 0 {
		t.Errorf("FracAbove(100ms) = %v, want 0", got)
	}
}

func TestBoxplotSummary(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 1000; i++ {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	b := s.Box()
	if b.N != 1000 {
		t.Fatalf("N = %d, want 1000", b.N)
	}
	if b.P5 >= b.P25 || b.P25 >= b.P50 || b.P50 >= b.P75 || b.P75 >= b.P95 {
		t.Fatalf("boxplot quantiles not strictly increasing: %+v", b)
	}
	if b.Max != 1000*time.Microsecond {
		t.Fatalf("Max = %v, want 1ms", b.Max)
	}
	if !strings.Contains(b.String(), "n=1000") {
		t.Fatalf("String() missing count: %q", b.String())
	}
}

func TestICDF(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 10000; i++ {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	var pts []time.Duration
	for _, f := range []float64{1, 0.1, 0.01, 0.001} {
		pts = append(pts, s.ICDF(f))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] < pts[i-1] {
			t.Fatalf("ICDF latencies must be non-decreasing: %v", pts)
		}
	}
	// At fraction 0.001 the latency should be near the 99.9th percentile.
	if got, want := pts[3], s.Percentile(99.9); got != want {
		t.Fatalf("ICDF(0.001) = %v, want %v", got, want)
	}
}

func TestTimeSeriesWindows(t *testing.T) {
	var ts TimeSeries
	// 10 seconds of one observation per 100ms, value = 1ms..100ms.
	for i := 0; i < 100; i++ {
		ts.Add(time.Duration(i)*100*time.Millisecond, time.Duration(i+1)*time.Millisecond)
	}
	ws := ts.Windows(2500 * time.Millisecond)
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	for i, w := range ws {
		// Window i holds 1+25i .. 25+25i ms: mean 13+25i, p95 25+25i.
		if want := time.Duration(13+25*i) * time.Millisecond; w.Mean != want {
			t.Fatalf("window %d mean = %v, want %v", i, w.Mean, want)
		}
		if w.P95 < w.Mean || w.P95 > time.Duration(25+25*i)*time.Millisecond {
			t.Fatalf("window %d p95 = %v outside [mean, max]: %+v", i, w.P95, w)
		}
	}
	if ws[0].Mean >= ws[3].Mean {
		t.Fatal("increasing series must have increasing window means")
	}
}

func TestTimeSeriesWindowsEmptyAndGaps(t *testing.T) {
	var ts TimeSeries
	if got := ts.Windows(time.Second); got != nil {
		t.Fatalf("empty series windows = %v, want nil", got)
	}
	ts.Add(0, time.Millisecond)
	ts.Add(10*time.Second, 2*time.Millisecond) // large gap: intermediate windows skipped
	ws := ts.Windows(time.Second)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (gaps skipped)", len(ws))
	}
}

func TestMeterRate(t *testing.T) {
	var m Meter
	for i := 0; i < 120; i++ {
		m.Mark(time.Duration(i) * time.Second / 2) // 2 events/s for 60s
	}
	rate := m.RatePerMinute(0, time.Minute)
	if rate < 119 || rate > 121 {
		t.Fatalf("RatePerMinute = %v, want ~120", rate)
	}
	if m.Count() != 120 {
		t.Fatalf("Count = %d, want 120", m.Count())
	}
	if got := m.RatePerMinute(time.Minute, time.Minute); got != 0 {
		t.Fatalf("degenerate interval rate = %v, want 0", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"game", "players"}}
	tb.AddRow("Servo", "120")
	tb.AddRow("Opencraft", "0")
	out := tb.String()
	if !strings.Contains(out, "Servo") || !strings.Contains(out, "Opencraft") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestSampleValuesIsACopy(t *testing.T) {
	s := NewSample(0)
	s.Add(time.Millisecond)
	v := s.Values()
	v[0] = time.Hour
	if s.Percentile(100) != time.Millisecond {
		t.Fatal("mutating Values() result leaked into the sample")
	}
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}
