package sim

import (
	"math"
	"math/rand"
	"time"
)

// Dist is a latency (or more generally, duration) distribution. All the
// platform models in this repository — FaaS cold starts, blob-store
// round-trips, tick-duration noise — are expressed as Dists so that they can
// be composed, calibrated, and swapped in tests.
type Dist interface {
	// Sample draws one value. Implementations must never return a
	// negative duration.
	Sample(r *rand.Rand) time.Duration
	// Mean returns the analytic mean of the distribution, used by cost
	// accounting and documentation.
	Mean() time.Duration
}

// Uniform samples uniformly from [Low, High].
type Uniform struct {
	Low, High time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.High <= u.Low {
		return clampNonNeg(u.Low)
	}
	return clampNonNeg(u.Low + time.Duration(r.Int63n(int64(u.High-u.Low))))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Low + u.High) / 2 }

// LogNormal samples exp(N(mu, sigma)) scaled to Scale. With Scale = 1ms,
// mu and sigma are the log-millisecond parameters. Log-normal bodies with
// occasional far outliers are what both the paper (Fig. 3, Fig. 13) and the
// broader serverless measurement literature report for FaaS and blob
// latency.
type LogNormal struct {
	Scale time.Duration // unit the exp() is expressed in (e.g. time.Millisecond)
	Mu    float64       // mean of the underlying normal (in log units)
	Sigma float64       // stddev of the underlying normal
}

// Sample implements Dist.
func (ln LogNormal) Sample(r *rand.Rand) time.Duration {
	v := math.Exp(ln.Mu + ln.Sigma*r.NormFloat64())
	return clampNonNeg(time.Duration(v * float64(ln.Scale)))
}

// Mean implements Dist.
func (ln LogNormal) Mean() time.Duration {
	return time.Duration(math.Exp(ln.Mu+ln.Sigma*ln.Sigma/2) * float64(ln.Scale))
}

// Shifted adds a constant Offset to every sample of Base: the canonical way
// to model "fixed network RTT plus variable service time".
type Shifted struct {
	Base   Dist
	Offset time.Duration
}

// Sample implements Dist.
func (s Shifted) Sample(r *rand.Rand) time.Duration {
	return clampNonNeg(s.Offset + s.Base.Sample(r))
}

// Mean implements Dist.
func (s Shifted) Mean() time.Duration { return s.Offset + s.Base.Mean() }

// Mixture samples Tail with probability P and Body otherwise. It models
// heavy outlier tails (cold starts, multi-tenant interference) on top of a
// well-behaved body distribution.
type Mixture struct {
	Body Dist
	Tail Dist
	P    float64 // probability of drawing from Tail, in [0, 1]
}

// Sample implements Dist.
func (m Mixture) Sample(r *rand.Rand) time.Duration {
	if r.Float64() < m.P {
		return m.Tail.Sample(r)
	}
	return m.Body.Sample(r)
}

// Mean implements Dist.
func (m Mixture) Mean() time.Duration {
	b := float64(m.Body.Mean())
	t := float64(m.Tail.Mean())
	return time.Duration(b*(1-m.P) + t*m.P)
}

func clampNonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}
