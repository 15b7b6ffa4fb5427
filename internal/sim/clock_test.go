package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLoopRunsEventsInTimestampOrder(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.After(30*time.Millisecond, func() { got = append(got, 3) })
	l.After(10*time.Millisecond, func() { got = append(got, 1) })
	l.After(20*time.Millisecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", l.Now())
	}
}

func TestLoopFIFOAmongEqualTimestamps(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp events ran out of order: %v", got)
		}
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			l.After(50*time.Millisecond, tick)
		}
	}
	l.After(0, tick)
	l.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if l.Now() != 200*time.Millisecond {
		t.Fatalf("Now() = %v, want 200ms", l.Now())
	}
}

func TestLoopRunUntilStopsAtDeadline(t *testing.T) {
	l := NewLoop(1)
	var ran []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		l.At(d, func() { ran = append(ran, d) })
	}
	l.RunUntil(25 * time.Millisecond)
	if len(ran) != 2 {
		t.Fatalf("ran %d events before deadline, want 2", len(ran))
	}
	if l.Now() != 25*time.Millisecond {
		t.Fatalf("Now() = %v, want deadline 25ms", l.Now())
	}
	if len(l.queue) != 2 {
		t.Fatalf("%d events pending, want 2", len(l.queue))
	}
}

func TestLoopPastEventsClampToNow(t *testing.T) {
	l := NewLoop(1)
	l.RunUntil(100 * time.Millisecond)
	fired := false
	l.At(10*time.Millisecond, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
	if l.Now() != 100*time.Millisecond {
		t.Fatalf("clock moved backwards to %v", l.Now())
	}
}

func TestLoopDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		l := NewLoop(seed)
		var out []time.Duration
		var step func()
		step = func() {
			d := Uniform{Low: time.Millisecond, High: 10 * time.Millisecond}.Sample(l.RNG())
			out = append(out, l.Now())
			if len(out) < 100 {
				l.After(d, step)
			}
		}
		l.After(0, step)
		l.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestRealClockDeliversCallbacks(t *testing.T) {
	c := NewRealClock(1)
	defer c.Close()
	done := make(chan struct{})
	c.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real clock callback never fired")
	}
	if c.Now() <= 0 {
		t.Fatal("real clock did not advance")
	}
}

func TestRealClockCloseStopsPending(t *testing.T) {
	c := NewRealClock(1)
	fired := make(chan struct{}, 1)
	c.After(time.Hour, func() { fired <- struct{}{} })
	c.Close()
	select {
	case <-fired:
		t.Fatal("callback fired after Close")
	default:
	}
}

func TestDistributionsNonNegative(t *testing.T) {
	dists := []Dist{
		fixed(5 * time.Millisecond),
		Uniform{Low: 0, High: time.Second},
		LogNormal{Scale: time.Millisecond, Mu: 2, Sigma: 1.5},
		Shifted{Base: Uniform{Low: 0, High: time.Millisecond}, Offset: -time.Millisecond}, // clamped at zero
		Mixture{Body: fixed(time.Millisecond), Tail: fixed(time.Second), P: 0.5},
	}
	l := NewLoop(7)
	for _, d := range dists {
		for i := 0; i < 1000; i++ {
			if v := d.Sample(l.RNG()); v < 0 {
				t.Fatalf("%T sampled negative duration %v", d, v)
			}
		}
	}
}

func TestLogNormalMeanMatchesEmpirical(t *testing.T) {
	d := LogNormal{Scale: time.Millisecond, Mu: 3, Sigma: 0.5}
	l := NewLoop(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(l.RNG()))
	}
	emp := sum / n
	ana := float64(d.Mean())
	if ratio := emp / ana; ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("empirical mean %v deviates from analytic %v (ratio %.3f)",
			time.Duration(emp), time.Duration(ana), ratio)
	}
}

func TestMixtureTailProbability(t *testing.T) {
	d := Mixture{Body: fixed(time.Millisecond), Tail: fixed(time.Second), P: 0.1}
	l := NewLoop(11)
	tails := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if d.Sample(l.RNG()) == time.Second {
			tails++
		}
	}
	frac := float64(tails) / n
	if frac < 0.09 || frac > 0.11 {
		t.Fatalf("tail fraction = %.4f, want ~0.10", frac)
	}
}

func TestUniformSampleWithinBoundsQuick(t *testing.T) {
	l := NewLoop(3)
	f := func(lo, span uint32) bool {
		u := Uniform{Low: time.Duration(lo), High: time.Duration(lo) + time.Duration(span)}
		v := u.Sample(l.RNG())
		return v >= u.Low && v <= u.High
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// fixed is a distribution that always returns d: a uniform one of zero
// width.
func fixed(d time.Duration) Dist { return Uniform{Low: d, High: d} }
