// Package blob simulates serverless (managed) object storage — Azure Blob
// Storage and AWS S3 in the paper. The store holds real bytes in memory;
// only the request latency is modelled, with the distribution shapes the
// paper measures in Fig. 3 and Fig. 13:
//
//   - a lognormal latency body whose median sits in the low tens of
//     milliseconds;
//   - a heavy outlier tail reaching hundreds of milliseconds ("outliers
//     reach 500 ms latency", §IV-F), more pronounced on the Standard tier
//     than on Premium (Fig. 3);
//   - per-operation and per-byte billing meters.
//
// A Local tier models the baseline's local-disk persistence: sub-
// millisecond latency with rare small outliers (§IV-F: local storage
// completes 99.9% of requests within 16 ms and never exceeds 123 ms).
package blob

import (
	"errors"
	"fmt"
	"time"

	"servo/internal/metrics"
	"servo/internal/sim"
)

// Tier selects a latency/cost model.
type Tier int

// Storage tiers. TierLocal models the baseline's local disk; TierPremium
// and TierStandard model the two Azure Blob Storage plans of Fig. 3.
const (
	TierLocal Tier = iota + 1
	TierPremium
	TierStandard
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierLocal:
		return "local"
	case TierPremium:
		return "premium"
	case TierStandard:
		return "standard"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Model holds the latency distributions of one tier.
type Model struct {
	Read  sim.Dist
	Write sim.Dist
	// BytesPerSec is the transfer bandwidth added on top of the
	// first-byte latency; larger objects (terrain chunks) take visibly
	// longer than small ones (player data), as in the paper's Fig. 3.
	BytesPerSec float64
}

// transferTime returns the size-dependent component of an operation.
func (m Model) transferTime(n int) time.Duration {
	if m.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
}

// ModelFor returns the calibrated latency model for a tier.
//
// Calibration anchors (paper Fig. 3, Fig. 13, §IV-F):
//   - local: p50 ≈ 1 ms, p99.9 ≈ 16 ms, max ≈ 123 ms;
//   - premium: p50 ≈ 25 ms, p99 ≈ 5× local p99, p99.9 ≈ 226 ms,
//     outliers to ~500 ms;
//   - standard: p50 ≈ 45 ms with a wider body and outliers past 750 ms
//     (Fig. 3 shows terrain downloads breaching the 100 ms FPS threshold
//     routinely on Standard).
func ModelFor(tier Tier) Model {
	switch tier {
	case TierLocal:
		return Model{
			Read: sim.Mixture{
				Body: sim.LogNormal{Scale: time.Millisecond, Mu: 0.0, Sigma: 0.5},
				Tail: sim.Uniform{Low: 10 * time.Millisecond, High: 123 * time.Millisecond},
				P:    0.0008,
			},
			Write:       sim.LogNormal{Scale: time.Millisecond, Mu: 0.5, Sigma: 0.5},
			BytesPerSec: 400e6, // NVMe-class local disk
		}
	case TierPremium:
		return Model{
			Read: sim.Mixture{
				Body: sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 2.6, Sigma: 0.55}, Offset: 8 * time.Millisecond},
				Tail: sim.Uniform{Low: 150 * time.Millisecond, High: 520 * time.Millisecond},
				P:    0.002,
			},
			Write:       sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 3.0, Sigma: 0.5}, Offset: 10 * time.Millisecond},
			BytesPerSec: 80e6, // premium-tier throughput
		}
	default: // TierStandard
		return Model{
			Read: sim.Mixture{
				Body: sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 3.3, Sigma: 0.7}, Offset: 10 * time.Millisecond},
				Tail: sim.Uniform{Low: 250 * time.Millisecond, High: 1000 * time.Millisecond},
				P:    0.004,
			},
			Write:       sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 3.6, Sigma: 0.6}, Offset: 12 * time.Millisecond},
			BytesPerSec: 25e6, // standard-tier throughput
		}
	}
}

// Billing rates approximating Azure Blob hot-tier pricing: per 10k
// operations and per GB transferred.
const (
	dollarsPerReadOp    = 0.004 / 10000
	dollarsPerWriteOp   = 0.05 / 10000
	dollarsPerGBEgress  = 0.087
	dollarsPerGBStorage = 0.0184 // per month; charged on peak usage
)

// ErrNotFound is returned for reads of missing keys.
var ErrNotFound = errors.New("blob: object not found")

// ErrInjectedFault is the error delivered by chaos-injected request
// failures (see Chaos).
var ErrInjectedFault = errors.New("blob: injected fault")

// Chaos configures storage-level fault injection for scenario testing
// (internal/scenario): service brownouts (latency inflation) and elevated
// error rates. A nil Chaos on the store disables injection entirely; the
// request path then performs no extra random draws, so runs with chaos
// disabled are bit-identical to runs on a store that never heard of chaos.
type Chaos struct {
	// ReadErrorRate / WriteErrorRate are the probabilities in [0, 1] that
	// an operation fails with ErrInjectedFault after its modelled latency.
	ReadErrorRate  float64
	WriteErrorRate float64
	// LatencyFactor multiplies every operation's latency when > 1
	// (service brownout).
	LatencyFactor float64
}

// inflate applies the brownout latency model to one operation.
func (c *Chaos) inflate(lat time.Duration) time.Duration {
	if c.LatencyFactor > 1 {
		lat = time.Duration(float64(lat) * c.LatencyFactor)
	}
	return lat
}

// SetChaos installs (or, with nil, removes) the store's fault injector.
func (s *Store) SetChaos(c *Chaos) { s.chaos = c }

// Store is a simulated object store bound to a clock.
type Store struct {
	clock   sim.Clock
	model   Model
	tier    Tier
	objects map[string][]byte
	chaos   *Chaos
	putGen  map[string]uint64 // write generations for PutRetrying chains
	// durable holds PutDurablyThen callbacks awaiting the next successful
	// install for their key, whichever write chain delivers it.
	durable map[string][]func()

	// Metrics observable by experiments.
	ReadLatency metrics.Sample
	Reads       metrics.Counter
	Writes      metrics.Counter
	// FaultsInjected counts chaos-injected operation failures.
	FaultsInjected metrics.Counter
	bytesOut       int64
	peakBytes      int64
	curBytes       int64
}

// NewStore returns an empty store of the given tier.
func NewStore(clock sim.Clock, tier Tier) *Store {
	return &Store{
		clock:   clock,
		model:   ModelFor(tier),
		tier:    tier,
		objects: make(map[string][]byte),
		putGen:  make(map[string]uint64),
		durable: make(map[string][]func()),
	}
}

// Tier returns the store's service tier.
func (s *Store) Tier() Tier { return s.tier }

// Get fetches the object at key asynchronously; cb runs on the clock after
// the modelled read latency with the data, or ErrNotFound itself: a miss
// is what every read of a cold world answers, so it formats nothing. The
// data is the stored object itself, not a copy: a read-only view that the
// receiver may keep (the terrain cache does) but must never mutate.
func (s *Store) Get(key string, cb func(data []byte, err error)) {
	data, ok := s.objects[key]
	lat := s.model.Read.Sample(s.clock.RNG()) + s.model.transferTime(len(data))
	if ch := s.chaos; ch != nil {
		lat = ch.inflate(lat)
		if ch.ReadErrorRate > 0 && s.clock.RNG().Float64() < ch.ReadErrorRate {
			s.Reads.Inc()
			s.ReadLatency.Add(lat)
			s.FaultsInjected.Inc()
			s.clock.After(lat, func() { cb(nil, fmt.Errorf("%w: read %q", ErrInjectedFault, key)) })
			return
		}
	}
	s.Reads.Inc()
	s.ReadLatency.Add(lat)
	s.clock.After(lat, func() {
		if !ok {
			cb(nil, ErrNotFound)
			return
		}
		s.bytesOut += int64(len(data))
		cb(data, nil)
	})
}

// Put stores data under key asynchronously; cb (which may be nil) runs
// after the modelled write latency. The store takes ownership of data: it
// installs the slice itself, so the caller must not mutate it afterwards
// (an encoded chunk is shared by the chunk, the terrain cache and the
// store, and never written again).
func (s *Store) Put(key string, data []byte, cb func(err error)) {
	s.put(key, data, 0, cb)
}

// put is Put with an optional write generation: a non-zero gen installs
// the object only if it is still the newest PutRetrying chain for key, so
// a slow stale write completing late cannot clobber a newer one. Like Put
// it takes ownership of data, as does every write path built on it.
func (s *Store) put(key string, data []byte, gen uint64, cb func(err error)) {
	lat := s.model.Write.Sample(s.clock.RNG()) + s.model.transferTime(len(data))
	if ch := s.chaos; ch != nil {
		lat = ch.inflate(lat)
		if ch.WriteErrorRate > 0 && s.clock.RNG().Float64() < ch.WriteErrorRate {
			s.Writes.Inc()
			s.FaultsInjected.Inc()
			s.clock.After(lat, func() {
				if cb != nil {
					cb(fmt.Errorf("%w: write %q", ErrInjectedFault, key))
				}
			})
			return
		}
	}
	s.Writes.Inc()
	s.clock.After(lat, func() {
		if gen != 0 && s.putGen[key] != gen {
			// Superseded by a newer write chain: drop the stale install.
			if cb != nil {
				cb(nil)
			}
			return
		}
		if old, ok := s.objects[key]; ok {
			s.curBytes -= int64(len(old))
		}
		s.objects[key] = data
		s.curBytes += int64(len(data))
		if s.curBytes > s.peakBytes {
			s.peakBytes = s.curBytes
		}
		// Any successful install resolves the key's durability waiters:
		// whichever chain delivered it, data for the key is now in the
		// store.
		if ws := s.durable[key]; len(ws) > 0 {
			delete(s.durable, key)
			for _, w := range ws {
				w()
			}
		}
		if cb != nil {
			cb(nil)
		}
	})
}

// PutRetrying stores data under key, retrying chaos-injected faults
// (paced by the store's own write latency) until the write lands. Write
// paths with no higher-level retry (player records, uncached chunk
// persistence) use it so transient fault windows cannot silently drop
// persisted state. Each key carries a write generation: a newer
// PutRetrying for the same key cancels any older retry chain, and a stale
// write still in flight is dropped at install time, so a stale value can
// never clobber a newer write.
func (s *Store) PutRetrying(key string, data []byte) {
	s.PutRetryingThen(key, data, nil)
}

// PutRetryingThen is PutRetrying with a completion callback: done runs
// once the write lands (or once the chain is superseded by a newer write
// for the same key). Cross-shard handoff uses it to sequence the
// save-then-restore round-trip, so a brownout can delay but never lose a
// transferring player's state.
func (s *Store) PutRetryingThen(key string, data []byte, done func()) {
	s.putGen[key]++
	gen := s.putGen[key]
	var put func()
	put = func() {
		s.put(key, data, gen, func(err error) {
			if errors.Is(err, ErrInjectedFault) && s.putGen[key] == gen {
				put()
				return
			}
			if done != nil {
				done()
			}
		})
	}
	put()
}

// PutDurablyThen stores data under key and calls done only once a write
// for the key has actually been installed — this one, or any newer chain
// that superseded it (the pending callback transfers to whichever write
// lands first). This is the primitive ownership migrations gate on:
// unlike PutRetryingThen, a supersession by a concurrent writer (an
// unload-path PutRetrying, a cache flusher's PutLatest) cannot complete
// the callback while zero bytes are durable, so "done" always means the
// store holds data for the key at least as new as this write.
func (s *Store) PutDurablyThen(key string, data []byte, done func()) {
	if done != nil {
		s.durable[key] = append(s.durable[key], done)
	}
	s.PutRetrying(key, data)
}

// PutLatest is Put with last-writer-wins semantics: the write joins the
// key's generation sequence, so if a newer PutLatest/PutRetrying for the
// same key is issued before this one completes, the stale install is
// dropped (cb still runs, with a nil error). Periodic write-back paths
// use it so a chaos-slowed flush landing late cannot revert newer data.
func (s *Store) PutLatest(key string, data []byte, cb func(err error)) {
	s.putGen[key]++
	s.put(key, data, s.putGen[key], cb)
}

// GetRetrying fetches key, retrying chaos-injected faults (paced by the
// store's own read latency); every other outcome — data or ErrNotFound —
// is delivered to cb. Read paths where a false not-found would trigger
// destructive regeneration use it instead of Get.
func (s *Store) GetRetrying(key string, cb func(data []byte, err error)) {
	var attempt func()
	attempt = func() {
		s.Get(key, func(data []byte, err error) {
			if errors.Is(err, ErrInjectedFault) {
				attempt()
				return
			}
			cb(data, err)
		})
	}
	attempt()
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objects) }

// CopyFrom clones every object of src into s instantly, without latency or
// billing: each object is deep-copied, so the two stores share no bytes.
// It is a harness utility for handing one experiment phase's data to a
// fresh storage stack (and for test fixtures); the game path never uses
// it.
func (s *Store) CopyFrom(src *Store) {
	for k, v := range src.objects {
		cp := make([]byte, len(v))
		copy(cp, v)
		s.objects[k] = cp
		s.curBytes += int64(len(cp))
	}
	if s.curBytes > s.peakBytes {
		s.peakBytes = s.curBytes
	}
}

// BilledDollars returns the accumulated cost: operations, egress, and one
// month of peak storage.
func (s *Store) BilledDollars() float64 {
	return float64(s.Reads.Value())*dollarsPerReadOp +
		float64(s.Writes.Value())*dollarsPerWriteOp +
		float64(s.bytesOut)/1e9*dollarsPerGBEgress +
		float64(s.peakBytes)/1e9*dollarsPerGBStorage
}
