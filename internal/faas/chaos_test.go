package faas

import (
	"errors"
	"testing"
	"time"

	"servo/internal/sim"
)

func echoHandler(payload []byte) ([]byte, int) { return payload, 100 }

// collectLatencies invokes fn n times back to back and returns the
// observed per-invocation latencies and error count.
func collectLatencies(loop *sim.Loop, p *Platform, n int) (lats []time.Duration, errs int) {
	for i := 0; i < n; i++ {
		p.Invoke("f", nil, func(inv Invocation) {
			lats = append(lats, inv.Latency)
			if inv.Err != nil {
				errs++
			}
		})
	}
	loop.Run()
	return lats, errs
}

// TestChaosDisabledIsZeroOverhead requires that a platform with chaos
// explicitly set to nil behaves bit-identically to one that never touched
// chaos: same latency sequence, no extra random draws.
func TestChaosDisabledIsZeroOverhead(t *testing.T) {
	run := func(touchChaos bool) []time.Duration {
		loop := sim.NewLoop(7)
		p := NewPlatform(loop)
		p.Register("f", DefaultConfig(), echoHandler)
		if touchChaos {
			p.SetChaos(&Chaos{FailureRate: 0.9, LatencyFactor: 50})
			p.SetChaos(nil)
		}
		lats, errs := collectLatencies(loop, p, 200)
		if errs != 0 {
			t.Fatalf("disabled chaos produced %d errors", errs)
		}
		return lats
	}
	base, toggled := run(false), run(true)
	if len(base) != len(toggled) {
		t.Fatalf("latency counts differ: %d vs %d", len(base), len(toggled))
	}
	for i := range base {
		if base[i] != toggled[i] {
			t.Fatalf("latency[%d] differs: %v vs %v", i, base[i], toggled[i])
		}
	}
}

// TestChaosFailureRateSurfaces checks that a configured failure rate
// actually produces ErrInjectedFault at roughly that rate, and that the
// injected-fault counter matches.
func TestChaosFailureRateSurfaces(t *testing.T) {
	loop := sim.NewLoop(3)
	p := NewPlatform(loop)
	fn := p.Register("f", DefaultConfig(), echoHandler)
	p.SetChaos(&Chaos{FailureRate: 0.3})
	var errCount, injected int
	for i := 0; i < 1000; i++ {
		p.Invoke("f", nil, func(inv Invocation) {
			if inv.Err != nil {
				errCount++
				if errors.Is(inv.Err, ErrInjectedFault) {
					injected++
				}
			}
		})
	}
	loop.Run()
	if errCount != injected {
		t.Fatalf("%d errors but only %d are ErrInjectedFault", errCount, injected)
	}
	if errCount < 200 || errCount > 400 {
		t.Fatalf("failure rate 0.3 over 1000 invocations produced %d failures", errCount)
	}
	if got := fn.FaultsInjected.Value(); got != int64(errCount) {
		t.Fatalf("FaultsInjected = %d, want %d", got, errCount)
	}
}

// TestChaosLatencyFactorExact verifies the slowdown multiplies each
// invocation's latency exactly (no extra random draws, so the baseline
// sequence is reproducible under the same seed).
func TestChaosLatencyFactorExact(t *testing.T) {
	const factor = 3.0
	run := func(withChaos bool) []time.Duration {
		loop := sim.NewLoop(11)
		p := NewPlatform(loop)
		p.Register("f", DefaultConfig(), echoHandler)
		if withChaos {
			p.SetChaos(&Chaos{LatencyFactor: factor})
		}
		lats, errs := collectLatencies(loop, p, 100)
		if errs != 0 {
			t.Fatalf("unexpected errors: %d", errs)
		}
		return lats
	}
	base, slow := run(false), run(true)
	for i := range base {
		want := time.Duration(float64(base[i]) * factor)
		if slow[i] != want {
			t.Fatalf("latency[%d] = %v, want exactly %v (3x %v)", i, slow[i], want, base[i])
		}
	}
}

// TestPerFunctionChaosTargetsOnlyNamedFunction checks that a
// function-level injector fails only its own function, and that it fully
// overrides (not merges with) the platform-wide injector.
func TestPerFunctionChaosTargetsOnlyNamedFunction(t *testing.T) {
	loop := sim.NewLoop(9)
	p := NewPlatform(loop)
	sick := p.Register("sick", DefaultConfig(), echoHandler)
	healthy := p.Register("healthy", DefaultConfig(), echoHandler)

	if !p.SetFunctionChaos("sick", &Chaos{FailureRate: 1}) {
		t.Fatal("SetFunctionChaos did not find the function")
	}
	if p.SetFunctionChaos("missing", &Chaos{FailureRate: 1}) {
		t.Fatal("SetFunctionChaos invented a function")
	}

	var sickErrs, healthyErrs int
	for i := 0; i < 50; i++ {
		p.Invoke("sick", nil, func(inv Invocation) {
			if inv.Err != nil {
				sickErrs++
			}
		})
		p.Invoke("healthy", nil, func(inv Invocation) {
			if inv.Err != nil {
				healthyErrs++
			}
		})
	}
	loop.Run()
	if sickErrs != 50 {
		t.Fatalf("targeted function failed %d/50 invocations, want all", sickErrs)
	}
	if healthyErrs != 0 {
		t.Fatalf("untargeted function failed %d invocations", healthyErrs)
	}
	if sick.FaultsInjected.Value() != 50 || healthy.FaultsInjected.Value() != 0 {
		t.Fatalf("fault counters wrong: sick=%d healthy=%d",
			sick.FaultsInjected.Value(), healthy.FaultsInjected.Value())
	}

	// Function-level overrides platform-wide wholesale: with a benign
	// function injector installed, a platform failure injector must not
	// leak through to that function.
	p.SetFunctionChaos("sick", &Chaos{LatencyFactor: 1})
	p.SetChaos(&Chaos{FailureRate: 1})
	sickErrs, healthyErrs = 0, 0
	for i := 0; i < 20; i++ {
		p.Invoke("sick", nil, func(inv Invocation) {
			if inv.Err != nil {
				sickErrs++
			}
		})
		p.Invoke("healthy", nil, func(inv Invocation) {
			if inv.Err != nil {
				healthyErrs++
			}
		})
	}
	loop.Run()
	if sickErrs != 0 {
		t.Fatalf("function-level injector did not shield its function: %d errors", sickErrs)
	}
	if healthyErrs != 20 {
		t.Fatalf("platform injector should still govern untargeted function: %d/20", healthyErrs)
	}
}

// TestChaosForceColdAndEviction covers the cold-start storm primitives:
// ForceCold makes every invocation a cold start, and EvictAllWarm clears
// warm pools so the next natural invocation is cold again.
func TestChaosForceColdAndEviction(t *testing.T) {
	loop := sim.NewLoop(5)
	p := NewPlatform(loop)
	fn := p.Register("f", DefaultConfig(), echoHandler)

	// Warm the function up: one invocation, then let it finish.
	p.Invoke("f", nil, func(Invocation) {})
	loop.Run()
	if fn.WarmInstances(loop.Now()) == 0 {
		t.Fatal("no warm instance after first invocation")
	}

	// A warm invocation must not be cold.
	before := fn.ColdStarts.Value()
	p.Invoke("f", nil, func(Invocation) {})
	loop.Run()
	if fn.ColdStarts.Value() != before {
		t.Fatal("second invocation was cold despite warm instance")
	}

	// ForceCold overrides the warm pool.
	p.SetChaos(&Chaos{ForceCold: true})
	before = fn.ColdStarts.Value()
	for i := 0; i < 5; i++ {
		p.Invoke("f", nil, func(Invocation) {})
	}
	loop.Run()
	if got := fn.ColdStarts.Value() - before; got != 5 {
		t.Fatalf("ColdStarts delta = %d, want 5", got)
	}
	p.SetChaos(nil)

	// Eviction empties the pool; the next invocation is naturally cold.
	if n := p.EvictAllWarm(); n == 0 {
		t.Fatal("EvictAllWarm evicted nothing")
	}
	if fn.WarmInstances(loop.Now()) != 0 {
		t.Fatal("warm instances survive eviction")
	}
	before = fn.ColdStarts.Value()
	p.Invoke("f", nil, func(Invocation) {})
	loop.Run()
	if fn.ColdStarts.Value() != before+1 {
		t.Fatal("post-eviction invocation was warm")
	}
}
