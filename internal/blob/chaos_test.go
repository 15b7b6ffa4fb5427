package blob

import (
	"errors"
	"testing"
	"time"

	"servo/internal/sim"
)

// TestBlobChaosDisabledIsZeroOverhead requires that a store with chaos
// explicitly set to nil produces the exact same latency sequence as one
// that never touched chaos.
func TestBlobChaosDisabledIsZeroOverhead(t *testing.T) {
	run := func(touchChaos bool) []time.Duration {
		loop := sim.NewLoop(9)
		s := NewStore(loop, TierPremium)
		if touchChaos {
			s.SetChaos(&Chaos{ReadErrorRate: 1, LatencyFactor: 10})
			s.SetChaos(nil)
		}
		s.Put("k", []byte("v"), nil)
		loop.Run()
		for i := 0; i < 200; i++ {
			s.Get("k", func([]byte, error) {})
		}
		loop.Run()
		return s.ReadLatency.Values()
	}
	base, toggled := run(false), run(true)
	if len(base) != len(toggled) {
		t.Fatalf("read counts differ: %d vs %d", len(base), len(toggled))
	}
	for i := range base {
		if base[i] != toggled[i] {
			t.Fatalf("read latency[%d] differs: %v vs %v", i, base[i], toggled[i])
		}
	}
}

// TestBlobChaosReadErrors checks that read faults surface at roughly the
// configured rate and are counted.
func TestBlobChaosReadErrors(t *testing.T) {
	loop := sim.NewLoop(2)
	s := NewStore(loop, TierLocal)
	s.Put("k", []byte("v"), nil)
	loop.Run()
	s.SetChaos(&Chaos{ReadErrorRate: 0.25})
	var faults int
	for i := 0; i < 1000; i++ {
		s.Get("k", func(_ []byte, err error) {
			if err != nil {
				if !errors.Is(err, ErrInjectedFault) {
					t.Errorf("unexpected error kind: %v", err)
				}
				faults++
			}
		})
	}
	loop.Run()
	if faults < 150 || faults > 350 {
		t.Fatalf("error rate 0.25 over 1000 reads produced %d faults", faults)
	}
	if got := s.FaultsInjected.Value(); got != int64(faults) {
		t.Fatalf("FaultsInjected = %d, want %d", got, faults)
	}
}

// TestBlobChaosWriteErrorsDropTheWrite checks that a failed write reports
// ErrInjectedFault and does not install the object.
func TestBlobChaosWriteErrorsDropTheWrite(t *testing.T) {
	loop := sim.NewLoop(4)
	s := NewStore(loop, TierLocal)
	s.SetChaos(&Chaos{WriteErrorRate: 1})
	var gotErr error
	s.Put("k", []byte("v"), func(err error) { gotErr = err })
	loop.Run()
	if !errors.Is(gotErr, ErrInjectedFault) {
		t.Fatalf("write error = %v, want ErrInjectedFault", gotErr)
	}
	if _, ok := s.objects["k"]; ok {
		t.Fatal("failed write still installed the object")
	}
}

// TestPutRetryingNewerWriteWins checks that a stale retry chain cannot
// clobber a newer write for the same key: v1 fails during a fault window
// and keeps retrying; v2 is issued after the window and lands; v1's chain
// must then stop instead of overwriting v2.
func TestPutRetryingNewerWriteWins(t *testing.T) {
	loop := sim.NewLoop(8)
	s := NewStore(loop, TierLocal)
	s.SetChaos(&Chaos{WriteErrorRate: 1})
	s.PutRetrying("k", []byte("v1"))
	loop.After(50*time.Millisecond, func() {
		s.SetChaos(nil)
		s.PutRetrying("k", []byte("v2"))
	})
	loop.Run()
	var got []byte
	s.Get("k", func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		got = data
	})
	loop.Run()
	if string(got) != "v2" {
		t.Fatalf("object = %q, want v2 (stale retry clobbered the newer write)", got)
	}
}

// TestPutRetryingInFlightStaleWriteDropped covers the other clobber path:
// a stale write already in flight (slow, no fault) must be dropped at
// install time when a newer, faster write for the same key lands first.
func TestPutRetryingInFlightStaleWriteDropped(t *testing.T) {
	loop := sim.NewLoop(14)
	s := NewStore(loop, TierLocal)
	s.SetChaos(&Chaos{LatencyFactor: 1000}) // v1 is slow but will succeed
	s.PutRetrying("k", []byte("v1"))
	s.SetChaos(nil)
	s.PutRetrying("k", []byte("v2")) // lands long before v1 completes
	loop.Run()
	var got []byte
	s.Get("k", func(data []byte, err error) {
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		got = data
	})
	loop.Run()
	if string(got) != "v2" {
		t.Fatalf("object = %q, want v2 (in-flight stale write clobbered the newer one)", got)
	}
}

// TestGetRetryingSurvivesFaultWindow checks that a read issued during a
// fault window keeps retrying and eventually delivers the object.
func TestGetRetryingSurvivesFaultWindow(t *testing.T) {
	loop := sim.NewLoop(12)
	s := NewStore(loop, TierLocal)
	s.Put("k", []byte("v"), nil)
	loop.Run()
	s.SetChaos(&Chaos{ReadErrorRate: 1})
	var got []byte
	var gotErr error
	s.GetRetrying("k", func(data []byte, err error) { got, gotErr = data, err })
	loop.After(100*time.Millisecond, func() { s.SetChaos(nil) })
	loop.Run()
	if gotErr != nil || string(got) != "v" {
		t.Fatalf("GetRetrying = %q, %v; want v, nil", got, gotErr)
	}
}

// TestBlobChaosLatencyFactorExact verifies the brownout multiplies each
// operation's latency exactly under the same seed.
func TestBlobChaosLatencyFactorExact(t *testing.T) {
	const factor = 5.0
	run := func(withChaos bool) []time.Duration {
		loop := sim.NewLoop(6)
		s := NewStore(loop, TierStandard)
		s.Put("k", []byte("v"), nil)
		loop.Run()
		if withChaos {
			s.SetChaos(&Chaos{LatencyFactor: factor})
		}
		for i := 0; i < 100; i++ {
			s.Get("k", func([]byte, error) {})
		}
		loop.Run()
		// Skip the Put's write latency; compare the 100 reads.
		return s.ReadLatency.Values()
	}
	base, slow := run(false), run(true)
	if len(base) != len(slow) {
		t.Fatalf("read counts differ: %d vs %d", len(base), len(slow))
	}
	for i := range base {
		want := time.Duration(float64(base[i]) * factor)
		if slow[i] != want {
			t.Fatalf("read latency[%d] = %v, want exactly %v", i, slow[i], want)
		}
	}
}
