package faas

import (
	"testing"
	"time"

	"servo/internal/sim"
)

// testConfig returns a deterministic configuration for latency assertions.
func testConfig() Config {
	return Config{
		MemoryMB:      FullVCPUMemMB,
		ColdStart:     fixed(200 * time.Millisecond),
		NetRTT:        fixed(10 * time.Millisecond),
		KeepAlive:     fixed(time.Minute),
		NsPerWorkUnit: time.Microsecond,
		ParallelFrac:  0.85,
	}
}

func echo(payload []byte) ([]byte, int) { return payload, 1000 } // 1 ms at 1 vCPU

func TestInvokeDeliversResponse(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	fn := p.Register("echo", testConfig(), echo)
	var got Invocation
	p.Invoke("echo", []byte("hello"), func(inv Invocation) { got = inv })
	loop.Run()
	if got.Err != nil {
		t.Fatalf("invocation error: %v", got.Err)
	}
	if string(got.Response) != "hello" {
		t.Fatalf("response = %q", got.Response)
	}
	if fn.ColdStarts.Value() != 1 {
		t.Fatal("first invocation must be a cold start")
	}
	// Cold: 10ms RTT + 200ms cold + 1ms exec = 211ms.
	if got.Latency != 211*time.Millisecond {
		t.Fatalf("cold latency = %v, want 211ms", got.Latency)
	}
}

func TestWarmInvocationSkipsColdStart(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	fn := p.Register("echo", testConfig(), echo)
	var second Invocation
	p.Invoke("echo", nil, func(Invocation) {
		// Invoke again once the instance is warm and idle.
		loop.After(time.Second, func() {
			p.Invoke("echo", nil, func(inv Invocation) { second = inv })
		})
	})
	loop.Run()
	if fn.ColdStarts.Value() != 1 {
		t.Fatal("second invocation should reuse the warm instance")
	}
	if second.Latency != 11*time.Millisecond {
		t.Fatalf("warm latency = %v, want 11ms", second.Latency)
	}
}

func TestKeepAliveExpiryCausesColdStart(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	p.Register("echo", testConfig(), echo) // keep-alive 1 minute
	var second Invocation
	p.Invoke("echo", nil, func(Invocation) {
		loop.After(2*time.Minute, func() {
			p.Invoke("echo", nil, func(inv Invocation) { second = inv })
		})
	})
	loop.Run()
	if got := p.fns["echo"].ColdStarts.Value(); got != 2 {
		t.Fatalf("cold starts = %d, want 2: the invocation after keep-alive expiry must be cold", got)
	}
	// Cold: 10ms RTT + 200ms cold + 1ms exec = 211ms.
	if second.Latency != 211*time.Millisecond {
		t.Fatalf("latency after keep-alive expiry = %v, want the cold 211ms", second.Latency)
	}
}

func TestConcurrentInvocationsEachGetAnInstance(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	p.Register("echo", testConfig(), echo)
	for i := 0; i < 10; i++ {
		p.Invoke("echo", nil, func(Invocation) {})
	}
	loop.Run()
	if colds := p.fns["echo"].ColdStarts.Value(); colds != 10 {
		t.Fatalf("%d cold starts for 10 concurrent invocations, want 10 (no instance sharing mid-flight)", colds)
	}
	if got := p.fns["echo"].WarmInstances(loop.Now()); got != 10 {
		t.Fatalf("warm pool = %d, want 10", got)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	var got Invocation
	p.Invoke("missing", nil, func(inv Invocation) { got = inv })
	loop.Run()
	if got.Err == nil {
		t.Fatal("invoking an unregistered function must error")
	}
}

func TestMemoryScalingSpeedsUpExecution(t *testing.T) {
	// More memory → more vCPU share → lower execution latency (Fig. 11a),
	// with sublinear returns above one vCPU (Fig. 11b).
	latencyFor := func(memMB int) time.Duration {
		loop := sim.NewLoop(7)
		p := NewPlatform(loop)
		cfg := testConfig()
		cfg.MemoryMB = memMB
		cfg.ColdStart = fixed(0)
		cfg.NetRTT = fixed(0)
		p.Register("work", cfg, func([]byte) ([]byte, int) { return nil, 1_000_000 })
		var lat time.Duration
		p.Invoke("work", nil, func(inv Invocation) { lat = inv.Latency })
		loop.Run()
		return lat
	}
	l320 := latencyFor(320)
	l1769 := latencyFor(1769)
	l10240 := latencyFor(10240)
	if !(l320 > l1769 && l1769 > l10240) {
		t.Fatalf("latency must fall with memory: 320MB=%v 1769MB=%v 10240MB=%v", l320, l1769, l10240)
	}
	// Sublinear above one vCPU: 5.8× the compute must yield < 5.8× speedup.
	if ratio := float64(l1769) / float64(l10240); ratio > 5.0 {
		t.Fatalf("speedup beyond one vCPU should be sublinear, got %.1f×", ratio)
	}
	// Linear-ish below one vCPU: 320 MB is ~5.5× slower than 1769 MB.
	if ratio := float64(l320) / float64(l1769); ratio < 4.0 || ratio > 7.0 {
		t.Fatalf("sub-vCPU slowdown ratio = %.1f, want ~5.5", ratio)
	}
}

func TestCPUShare(t *testing.T) {
	if got := CPUShare(FullVCPUMemMB); got != 1.0 {
		t.Fatalf("CPUShare(1769) = %v, want 1", got)
	}
	if got := CPUShare(20000); got != MaxVCPUs {
		t.Fatalf("CPUShare(20000) = %v, want cap %v", got, MaxVCPUs)
	}
	if got := CPUShare(884); got < 0.49 || got > 0.51 {
		t.Fatalf("CPUShare(884) = %v, want ~0.5", got)
	}
}

func TestBillingAccumulates(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	f := p.Register("echo", testConfig(), echo)
	for i := 0; i < 100; i++ {
		p.Invoke("echo", nil, func(Invocation) {})
	}
	loop.Run()
	if f.Invocations.Count() != 100 {
		t.Fatalf("invocations = %d, want 100", f.Invocations.Count())
	}
	// 100 × 1 ms at 1769 MB = 0.1s × 1.728 GB ≈ 0.173 GB-s.
	wantGBs := 0.1 * float64(FullVCPUMemMB) / 1024
	if f.BilledGBs < wantGBs*0.9 || f.BilledGBs > wantGBs*1.1 {
		t.Fatalf("billed GB-s = %v, want ~%v", f.BilledGBs, wantGBs)
	}
	if f.BilledDollars() <= 0 {
		t.Fatal("billing must be positive")
	}
}

func TestSmallMemoryHasHigherVariability(t *testing.T) {
	// Fig. 11: performance variability increases as resources decrease.
	spread := func(memMB int) float64 {
		loop := sim.NewLoop(3)
		p := NewPlatform(loop)
		cfg := testConfig()
		cfg.MemoryMB = memMB
		cfg.ColdStart = fixed(0)
		cfg.NetRTT = fixed(0)
		cfg.ExecNoiseSigma = 0.08
		f := p.Register("work", cfg, func([]byte) ([]byte, int) { return nil, 100_000 })
		for i := 0; i < 500; i++ {
			p.Invoke("work", nil, func(Invocation) {})
		}
		loop.Run()
		b := f.Latency.Box()
		return float64(b.P95-b.P5) / float64(b.P50)
	}
	if s320, s10240 := spread(320), spread(10240); s320 <= s10240 {
		t.Fatalf("relative spread at 320MB (%.3f) must exceed 10240MB (%.3f)", s320, s10240)
	}
}

func TestLatencySampleRecorded(t *testing.T) {
	loop := sim.NewLoop(1)
	p := NewPlatform(loop)
	f := p.Register("echo", testConfig(), echo)
	p.Invoke("echo", nil, func(Invocation) {})
	loop.Run()
	if f.Latency.Len() != 1 {
		t.Fatalf("latency samples = %d, want 1", f.Latency.Len())
	}
	if f.name != "echo" || f.Configuration().MemoryMB != FullVCPUMemMB {
		t.Fatal("function metadata accessors broken")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	loop := sim.NewLoop(1)
	for _, d := range []sim.Dist{cfg.ColdStart, cfg.NetRTT, cfg.KeepAlive} {
		if d.Mean() <= 0 {
			t.Fatalf("default config distribution %#v has mean %v, want positive", d, d.Mean())
		}
		for range 1000 {
			d.Sample(loop.RNG()) // a Uniform with High < Low panics here
		}
	}
	if cfg.NsPerWorkUnit <= 0 || cfg.ParallelFrac <= 0 || cfg.ParallelFrac >= 1 {
		t.Fatal("default config parameters out of range")
	}
}

// WarmInstances returns the number of non-expired instances at time now
// (including busy ones).
func (f *Function) WarmInstances(now sim.Time) int {
	n := 0
	for _, in := range f.instances {
		if in.expiresAt > now {
			n++
		}
	}
	return n
}

// fixed is a latency distribution that always returns d: a uniform one of
// zero width.
func fixed(d time.Duration) sim.Dist { return sim.Uniform{Low: d, High: d} }

// TestWarmPoolPicksLatestIdle: acquireWarm drops expired instances,
// claims the idle one that became available last (the first of equals),
// and keeps the rest in pool order.
func TestWarmPoolPicksLatestIdle(t *testing.T) {
	f := &Function{instances: []instance{
		{availableAt: 5, expiresAt: 100},
		{availableAt: 7, expiresAt: 100},
		{availableAt: 9, expiresAt: 10}, // expired at 10
		{availableAt: 7, expiresAt: 100},
		{availableAt: 20, expiresAt: 100}, // busy at 10
	}}
	if !f.acquireWarm(10) {
		t.Fatal("no idle instance claimed")
	}
	want := []instance{{5, 100}, {7, 100}, {20, 100}}
	if len(f.instances) != len(want) {
		t.Fatalf("pool %v, want %v", f.instances, want)
	}
	for i := range want {
		if f.instances[i] != want[i] {
			t.Fatalf("pool %v, want %v", f.instances, want)
		}
	}
}

// TestWarmPoolCycleAllocatesNothing: claiming a warm instance and retiring
// it again reuses the pool's storage.
func TestWarmPoolCycleAllocatesNothing(t *testing.T) {
	f := &Function{}
	f.retireInstance(0, time.Millisecond, time.Minute)
	now := sim.Time(time.Second)
	if got := testing.AllocsPerRun(100, func() {
		if !f.acquireWarm(now) {
			t.Fatal("no warm instance")
		}
		f.retireInstance(now, 0, time.Minute)
	}); got != 0 {
		t.Fatalf("%v allocs per claim and retire, want 0", got)
	}
}
