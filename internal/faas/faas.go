// Package faas simulates a commercial Function-as-a-Service platform (AWS
// Lambda / Azure Functions in the paper) with the characteristics the
// paper's experiments depend on:
//
//   - cold starts: the first invocation on a fresh instance pays a large
//     startup penalty, producing the temporally-correlated latency outliers
//     of Figures 8, 9, and 13;
//   - keep-alive eviction: idle instances are deallocated after minutes
//     ("AWS starts deallocating function resources within minutes",
//     paper §IV-C), so bursty invocation patterns keep hitting cold starts;
//   - memory-proportional compute: the vCPU share grows with the memory
//     configuration (one full vCPU at 1769 MB on AWS Lambda), and
//     performance variability grows as memory shrinks (Fig. 11);
//   - fine-grained billing: GB-seconds of execution plus a per-request
//     fee, used for the cost analysis of §IV-C and Fig. 11b.
//
// Handlers execute real Go code (the same circuit engine and terrain
// generator the server uses); only *time* is modelled: a handler reports
// the abstract work units it performed, and the platform converts work to
// virtual execution time based on the instance's compute share.
package faas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"servo/internal/metrics"
	"servo/internal/sim"
)

// Handler is the body of a serverless function. It receives the request
// payload and returns the response payload plus the abstract work units the
// execution performed (which determine billed duration).
type Handler func(payload []byte) (resp []byte, workUnits int)

// Config describes one deployed function.
type Config struct {
	// MemoryMB is the memory allocation, which also sets the compute
	// share (AWS Lambda model: a full vCPU per 1769 MB).
	MemoryMB int
	// ColdStart is the distribution of instance startup penalties.
	ColdStart sim.Dist
	// NetRTT is the network round-trip between the game server and the
	// function, paid by every invocation.
	NetRTT sim.Dist
	// KeepAlive is the distribution of idle lifetimes before the platform
	// deallocates a warm instance.
	KeepAlive sim.Dist
	// NsPerWorkUnit is the single-vCPU execution time per work unit.
	NsPerWorkUnit time.Duration
	// ParallelFrac is the Amdahl parallel fraction of the handler's work,
	// which governs how much configurations above one vCPU help.
	ParallelFrac float64
	// ExecNoiseSigma is the base lognormal sigma of execution-time noise
	// at one full vCPU; smaller memory configurations suffer
	// proportionally more variability (multi-tenant interference).
	ExecNoiseSigma float64
}

// Billing rates, matching AWS Lambda's published pricing (us-east-1, 2022):
// $0.0000166667 per GB-second and $0.20 per million requests.
const (
	DollarsPerGBSecond = 0.0000166667
	DollarsPerRequest  = 0.20 / 1e6
	// FullVCPUMemMB is the memory allocation that grants one full vCPU.
	FullVCPUMemMB = 1769
	// MaxVCPUs caps the compute share (10240 MB ≈ 5.8 vCPUs on Lambda).
	MaxVCPUs = 6.0
)

// DefaultConfig returns a function configuration calibrated against the
// paper's AWS measurements: ~15 ms median warm round-trip and cold starts
// in the hundreds of milliseconds.
func DefaultConfig() Config {
	return Config{
		MemoryMB:       1769,
		ColdStart:      sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 5.2, Sigma: 0.6}, Offset: 120 * time.Millisecond},
		NetRTT:         sim.Shifted{Base: sim.LogNormal{Scale: time.Millisecond, Mu: 1.3, Sigma: 0.5}, Offset: 4 * time.Millisecond},
		KeepAlive:      sim.Uniform{Low: 2 * time.Minute, High: 6 * time.Minute},
		NsPerWorkUnit:  50 * time.Microsecond,
		ParallelFrac:   0.85,
		ExecNoiseSigma: 0.08,
	}
}

// PresetAWS returns the AWS Lambda latency preset used by the paper's
// DAS-5 + AWS experiments: moderate cold starts (Firecracker microVMs) and
// low invocation RTT.
func PresetAWS() Config { return DefaultConfig() }

// PresetAzure returns the Azure Functions latency preset: longer and more
// variable cold starts and slightly higher RTT, matching the published
// serverless measurement studies the paper builds on.
func PresetAzure() Config {
	cfg := DefaultConfig()
	cfg.ColdStart = sim.Shifted{
		Base:   sim.LogNormal{Scale: time.Millisecond, Mu: 6.1, Sigma: 0.8},
		Offset: 250 * time.Millisecond,
	}
	cfg.NetRTT = sim.Shifted{
		Base:   sim.LogNormal{Scale: time.Millisecond, Mu: 1.7, Sigma: 0.6},
		Offset: 6 * time.Millisecond,
	}
	cfg.KeepAlive = sim.Uniform{Low: 5 * time.Minute, High: 20 * time.Minute}
	return cfg
}

// CPUShare returns the vCPU share granted to the given memory
// configuration.
func CPUShare(memoryMB int) float64 {
	f := float64(memoryMB) / FullVCPUMemMB
	if f > MaxVCPUs {
		f = MaxVCPUs
	}
	return f
}

// speedup converts a vCPU share into an execution-time divisor: fractional
// shares slow execution linearly; shares above one help only the parallel
// fraction of the work (Amdahl's law), reproducing the sublinear scaling of
// Fig. 11b.
func speedup(share, parallelFrac float64) float64 {
	if share <= 0 {
		return 1e-9
	}
	if share <= 1 {
		return share
	}
	return 1 / ((1 - parallelFrac) + parallelFrac/share)
}

// instance is one warm function instance.
type instance struct {
	availableAt sim.Time // busy until this time
	expiresAt   sim.Time // deallocated if idle past this time
}

// Function is one deployed serverless function.
type Function struct {
	name      string
	cfg       Config
	handler   Handler
	instances []*instance
	chaos     *Chaos

	// Stats observable by experiments.
	Latency     metrics.Sample // end-to-end latency as seen from the caller
	Invocations metrics.Meter
	ColdStarts  metrics.Counter
	// FaultsInjected counts chaos-injected invocation failures.
	FaultsInjected metrics.Counter
	BilledGBs      float64 // accumulated GB-seconds
}

// Platform is a simulated FaaS provider bound to a clock.
type Platform struct {
	clock sim.Clock
	fns   map[string]*Function
	chaos *Chaos
}

// NewPlatform returns an empty platform scheduling on clock.
func NewPlatform(clock sim.Clock) *Platform {
	return &Platform{clock: clock, fns: make(map[string]*Function)}
}

// ErrNoSuchFunction is returned when invoking an unregistered function.
var ErrNoSuchFunction = errors.New("faas: no such function")

// ErrInjectedFault is the error delivered by chaos-injected invocation
// failures (see Chaos).
var ErrInjectedFault = errors.New("faas: injected fault")

// Chaos configures platform-level fault injection for scenario testing
// (internal/scenario). A nil Chaos on the platform disables injection
// entirely: the invocation path performs no extra random draws, so runs
// with chaos disabled are bit-identical to runs on a platform that never
// heard of chaos.
type Chaos struct {
	// FailureRate is the probability in [0, 1] that an invocation fails
	// with ErrInjectedFault after its modelled latency.
	FailureRate float64
	// LatencyFactor multiplies every invocation's end-to-end latency when
	// > 1 (platform slowdown / throttling).
	LatencyFactor float64
	// ExtraLatency, if non-nil, is added to every invocation's latency.
	ExtraLatency sim.Dist
	// ForceCold makes every invocation pay a cold start regardless of the
	// warm pool (correlated cold-start storms).
	ForceCold bool
}

// inflate applies the slowdown model to one invocation's latency,
// mirroring blob.Chaos.inflate so the two chaos layers share semantics.
func (c *Chaos) inflate(lat time.Duration, rng *rand.Rand) time.Duration {
	if c.LatencyFactor > 1 {
		lat = time.Duration(float64(lat) * c.LatencyFactor)
	}
	if c.ExtraLatency != nil {
		lat += c.ExtraLatency.Sample(rng)
	}
	return lat
}

// SetChaos installs (or, with nil, removes) the platform's fault injector.
func (p *Platform) SetChaos(c *Chaos) { p.chaos = c }

// SetChaos installs (or, with nil, removes) a fault injector targeting
// this function only. A function-level injector fully overrides the
// platform-wide one for this function's invocations (settings do not
// merge), so a scenario can fail only `simulate-construct` while
// `generate-terrain` stays healthy.
func (f *Function) SetChaos(c *Chaos) { f.chaos = c }

// SetFunctionChaos installs a fault injector on the named function. It
// reports whether the function exists.
func (p *Platform) SetFunctionChaos(name string, c *Chaos) bool {
	f := p.fns[name]
	if f == nil {
		return false
	}
	f.SetChaos(c)
	return true
}

// effectiveChaos returns the injector governing one invocation of f: the
// function-level injector when set, the platform-wide one otherwise.
func (p *Platform) effectiveChaos(f *Function) *Chaos {
	if f.chaos != nil {
		return f.chaos
	}
	return p.chaos
}

// EvictWarm deallocates every warm instance of the function, as a platform
// capacity reclaim would; the next invocations all pay cold starts. It
// returns the number of instances evicted.
func (f *Function) EvictWarm() int {
	n := len(f.instances)
	f.instances = nil
	return n
}

// EvictAllWarm evicts every warm instance of every deployed function and
// returns the total evicted.
func (p *Platform) EvictAllWarm() int {
	n := 0
	for _, f := range p.fns {
		n += f.EvictWarm()
	}
	return n
}

// Register deploys a function under the given name, replacing any previous
// deployment.
func (p *Platform) Register(name string, cfg Config, h Handler) *Function {
	f := &Function{name: name, cfg: cfg, handler: h}
	p.fns[name] = f
	return f
}

// Invocation carries the outcome of one function invocation.
type Invocation struct {
	Response []byte
	Latency  time.Duration
	Cold     bool
	Err      error
}

// Invoke executes the named function asynchronously. The handler body runs
// immediately (it is deterministic Go code), but cb is delivered on the
// clock after the modelled invocation latency: network RTT + optional cold
// start + work-dependent execution time. There is no concurrency limit —
// "all generation requests can be invoked concurrently" (paper §III-D).
func (p *Platform) Invoke(name string, payload []byte, cb func(Invocation)) {
	f := p.fns[name]
	if f == nil {
		p.clock.After(0, func() { cb(Invocation{Err: fmt.Errorf("%w: %q", ErrNoSuchFunction, name)}) })
		return
	}
	now := p.clock.Now()
	rng := p.clock.RNG()

	resp, work := f.handler(payload)

	// Compute execution time from work units and the compute share.
	share := CPUShare(f.cfg.MemoryMB)
	execNs := float64(work) * float64(f.cfg.NsPerWorkUnit) / speedup(share, f.cfg.ParallelFrac)
	// Interference noise grows as the compute share shrinks.
	sigma := f.cfg.ExecNoiseSigma
	if share < 1 {
		sigma = f.cfg.ExecNoiseSigma / share
	}
	exec := time.Duration(execNs * math.Exp(sigma*rng.NormFloat64()))

	latency := f.cfg.NetRTT.Sample(rng) + exec
	chaos := p.effectiveChaos(f)
	// Always run the pool claim/prune, even under ForceCold: the storm
	// makes the invocation *behave* cold but must not let the warm pool
	// grow without bound (or emerge from the storm fully stocked).
	cold := !f.acquireWarm(now)
	if chaos != nil && chaos.ForceCold {
		cold = true
	}
	if cold {
		latency += f.cfg.ColdStart.Sample(rng)
		f.ColdStarts.Inc()
	}

	// Fault injection (scenario chaos layer). The chaos == nil fast path
	// draws no randomness, so disabled chaos is invisible to replay.
	failed := false
	if ch := chaos; ch != nil {
		latency = ch.inflate(latency, rng)
		if ch.FailureRate > 0 && rng.Float64() < ch.FailureRate {
			failed = true
			f.FaultsInjected.Inc()
		}
	}
	// Retire with the final (chaos-inflated) latency: the instance stays
	// busy for as long as the caller observes the invocation to take.
	f.retireInstance(now, latency, f.cfg.KeepAlive.Sample(rng))

	f.Invocations.Mark(now)
	f.Latency.Add(latency)
	// Failed invocations are still billed: the platform charges for the
	// execution it performed before the fault surfaced.
	f.BilledGBs += exec.Seconds() * float64(f.cfg.MemoryMB) / 1024

	p.clock.After(latency, func() {
		if failed {
			cb(Invocation{Latency: latency, Cold: cold, Err: ErrInjectedFault})
			return
		}
		cb(Invocation{Response: resp, Latency: latency, Cold: cold})
	})
}

// acquireWarm claims an idle warm instance if one exists at time now,
// removing expired instances along the way. It reports whether a warm
// instance was found.
func (f *Function) acquireWarm(now sim.Time) bool {
	best := -1
	live := f.instances[:0]
	for _, in := range f.instances {
		if in.expiresAt <= now {
			continue // deallocated
		}
		live = append(live, in)
		if in.availableAt <= now && (best == -1 || in.availableAt > live[best].availableAt) {
			best = len(live) - 1
		}
	}
	f.instances = live
	if best == -1 {
		return false
	}
	// Claim it: remove from the pool; retireInstance re-adds it when the
	// invocation completes.
	f.instances = append(f.instances[:best], f.instances[best+1:]...)
	return true
}

// retireInstance returns an instance (fresh or reused) to the warm pool
// after an invocation finishing at now+busy, with the given sampled idle
// lifetime before deallocation.
func (f *Function) retireInstance(now sim.Time, busy, keepAlive time.Duration) {
	done := now + busy
	f.instances = append(f.instances, &instance{availableAt: done, expiresAt: done + keepAlive})
}

// BilledDollars returns the accumulated invocation cost: GB-seconds plus
// per-request fees.
func (f *Function) BilledDollars() float64 {
	return f.BilledGBs*DollarsPerGBSecond + float64(f.Invocations.Count())*DollarsPerRequest
}

// Config returns the function's deployment configuration.
func (f *Function) Configuration() Config { return f.cfg }
