package blob

import (
	"errors"
	"testing"
	"time"

	"servo/internal/metrics"
	"servo/internal/sim"
)

func TestPutGetRoundTrip(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierPremium)
	var got []byte
	var gotErr error
	s.Put("k", []byte("value"), func(err error) {
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		s.Get("k", func(data []byte, err error) { got, gotErr = data, err })
	})
	loop.Run()
	if gotErr != nil {
		t.Fatalf("get: %v", gotErr)
	}
	if string(got) != "value" {
		t.Fatalf("got %q, want %q", got, "value")
	}
}

func TestGetMissingKey(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierLocal)
	var gotErr error
	s.Get("missing", func(_ []byte, err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", gotErr)
	}
}

// sameSlice reports whether a and b are the same bytes in memory, not
// merely equal ones.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

func TestGetDeliversStoredSlice(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierLocal)
	s.Put("k", []byte("abc"), nil)
	loop.Run()
	var first, second []byte
	s.Get("k", func(data []byte, _ error) { first = data })
	s.Get("k", func(data []byte, _ error) { second = data })
	loop.Run()
	if string(first) != "abc" || !sameSlice(first, s.objects["k"]) || !sameSlice(first, second) {
		t.Fatal("Get delivered a copy, not the stored object")
	}
}

func TestPutInstallsCallerSlice(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierLocal)
	data := []byte("abc")
	s.Put("k", data, nil)
	loop.Run()
	if !sameSlice(s.objects["k"], data) {
		t.Fatal("Put installed a copy, not the caller's slice")
	}
}

func TestCopyFromDeepCopies(t *testing.T) {
	loop := sim.NewLoop(1)
	src, dst := NewStore(loop, TierLocal), NewStore(loop, TierLocal)
	src.Put("k", []byte("abc"), nil)
	loop.Run()
	dst.CopyFrom(src)
	if string(dst.objects["k"]) != "abc" || sameSlice(dst.objects["k"], src.objects["k"]) {
		t.Fatal("CopyFrom shares the source's bytes")
	}
	src.objects["k"][0] = 'X'
	if string(dst.objects["k"]) != "abc" {
		t.Fatal("a write to the source store's object showed in the copy")
	}
}

func TestTierLatencyOrdering(t *testing.T) {
	// §IV-F / Fig. 3: local ≪ premium < standard, and the serverless
	// tiers have much heavier tails.
	read := func(tier Tier) *metrics.Sample {
		loop := sim.NewLoop(42)
		s := NewStore(loop, tier)
		s.Put("k", make([]byte, 1024), nil)
		loop.Run()
		for i := 0; i < 20000; i++ {
			s.Get("k", func([]byte, error) {})
		}
		loop.Run()
		return &s.ReadLatency
	}
	local, premium, standard := read(TierLocal), read(TierPremium), read(TierStandard)

	if !(local.Percentile(50) < premium.Percentile(50) && premium.Percentile(50) < standard.Percentile(50)) {
		t.Fatalf("median ordering wrong: local=%v premium=%v standard=%v",
			local.Percentile(50), premium.Percentile(50), standard.Percentile(50))
	}
	// Anchors from §IV-F (loose bands): local p99.9 ≤ 20 ms, max ≤ 130 ms.
	if p := local.Percentile(99.9); p > 20*time.Millisecond {
		t.Errorf("local p99.9 = %v, want ≤ 20ms", p)
	}
	if m := local.Max(); m > 130*time.Millisecond {
		t.Errorf("local max = %v, want ≤ 130ms", m)
	}
	// Premium p99.9 lands in the few-hundred-ms band (paper: 226 ms).
	if p := premium.Percentile(99.9); p < 60*time.Millisecond || p > 600*time.Millisecond {
		t.Errorf("premium p99.9 = %v, want ~226ms band", p)
	}
	// Standard has outliers beyond 700 ms (Fig. 3).
	if m := standard.Max(); m < 700*time.Millisecond {
		t.Errorf("standard max = %v, want > 700ms", m)
	}
}

func TestBillingAccumulates(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierStandard)
	s.Put("k", make([]byte, 1<<20), nil)
	loop.Run()
	for i := 0; i < 10; i++ {
		s.Get("k", func([]byte, error) {})
	}
	loop.Run()
	if s.Reads.Value() != 10 || s.Writes.Value() != 1 {
		t.Fatalf("ops = %d reads / %d writes", s.Reads.Value(), s.Writes.Value())
	}
	if s.BilledDollars() <= 0 {
		t.Fatal("billing must be positive after traffic")
	}
}

func TestOverwriteTracksPeakUsage(t *testing.T) {
	loop := sim.NewLoop(1)
	s := NewStore(loop, TierLocal)
	s.Put("k", make([]byte, 1000), nil)
	loop.Run()
	s.Put("k", make([]byte, 10), nil)
	loop.Run()
	if s.curBytes != 10 {
		t.Fatalf("current bytes = %d, want 10", s.curBytes)
	}
	if s.peakBytes != 1000 {
		t.Fatalf("peak bytes = %d, want 1000", s.peakBytes)
	}
}

func TestTierString(t *testing.T) {
	if TierLocal.String() != "local" || TierPremium.String() != "premium" || TierStandard.String() != "standard" {
		t.Fatal("tier names wrong")
	}
	if Tier(99).String() == "" {
		t.Fatal("unknown tier must have fallback name")
	}
}

func TestModelsValid(t *testing.T) {
	loop := sim.NewLoop(1)
	for _, tier := range []Tier{TierLocal, TierPremium, TierStandard} {
		m := ModelFor(tier)
		for _, d := range []sim.Dist{m.Read, m.Write} {
			if d.Mean() <= 0 {
				t.Errorf("%v model %#v has mean %v, want positive", tier, d, d.Mean())
			}
			for range 1000 {
				d.Sample(loop.RNG()) // a Uniform with High < Low panics here
			}
		}
	}
}

// TestPutDurablyThenSurvivesSupersession pins the durability contract
// ownership migrations rely on: when a newer write chain supersedes a
// PutDurablyThen mid-brownout, the completion callback transfers to the
// superseding chain instead of firing while zero bytes are durable.
func TestPutDurablyThenSurvivesSupersession(t *testing.T) {
	loop := sim.NewLoop(6)
	s := NewStore(loop, TierPremium)
	// Every write faults: the durable chain retries without landing.
	s.SetChaos(&Chaos{WriteErrorRate: 1})
	fired := false
	s.PutDurablyThen("k", []byte("old"), func() { fired = true })
	loop.RunUntil(2 * time.Second)
	// A newer retrying write supersedes the durable chain.
	s.PutRetrying("k", []byte("new"))
	loop.RunUntil(10 * time.Second)
	if fired {
		t.Fatal("done fired during the brownout with nothing durable")
	}
	if _, ok := s.objects["k"]; ok {
		t.Fatal("no write should have landed under total write failure")
	}
	// The brownout ends: the superseding chain lands and resolves done.
	s.SetChaos(nil)
	loop.RunUntil(20 * time.Second)
	if !fired {
		t.Fatal("done never fired after the superseding write landed")
	}
	var got []byte
	s.Get("k", func(data []byte, err error) {
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		got = data
	})
	loop.Run()
	if string(got) != "new" {
		t.Fatalf("stored %q, want the superseding write's data", got)
	}
}
