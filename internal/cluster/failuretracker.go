// Per-shard crash history and quarantine: the health leg of the
// autoscaling policy subsystem. The cluster's failover path keeps a
// crashed shard's players alive by rerouting them to survivors, and
// RecoverShard re-admits the shard — but a shard that crashes over and
// over (bad host, poisoned state) should not keep getting load handed
// back just to drop it again. The tracker records every crash on the
// virtual clock; a shard that crashes maxFailures times within the
// rolling window enters quarantine, and re-admission (tile ownership,
// RecoverShard) is refused until a probation period has passed with no
// further crashes. Pure virtual-time arithmetic — no goroutines, no wall
// clock — so quarantine decisions replay byte-identically.

package cluster

import "time"

// failureTrackerConfig bounds the crash-loop detector. Zero values take
// the defaults below.
type failureTrackerConfig struct {
	// maxFailures is the number of crashes within window that triggers
	// quarantine.
	maxFailures int
	// window is the rolling interval crashes are counted over.
	window time.Duration
	// probation is how long after the last crash a quarantined shard must
	// stay idle before it may be re-admitted.
	probation time.Duration
}

const (
	defaultMaxFailures      = 3
	defaultFailureWindow    = 2 * time.Minute
	defaultFailureProbation = 2 * time.Minute
)

func (c failureTrackerConfig) withDefaults() failureTrackerConfig {
	if c.maxFailures <= 0 {
		c.maxFailures = defaultMaxFailures
	}
	if c.window <= 0 {
		c.window = defaultFailureWindow
	}
	if c.probation <= 0 {
		c.probation = defaultFailureProbation
	}
	return c
}

// failureTracker records per-shard crash timestamps and derives
// quarantine state from them. Not safe for concurrent use; the virtual
// clock serialises all access like the rest of the control plane.
type failureTracker struct {
	cfg failureTrackerConfig
	// crashes holds each shard's crash times, oldest first, pruned to the
	// rolling window on every insert.
	crashes map[int][]time.Duration
	// quarantinedAt records when a shard entered quarantine; a shard
	// leaves when probation has elapsed since its last crash.
	quarantinedAt map[int]time.Duration
	// last is each shard's most recent crash time, kept outside the
	// pruned window so probation outlives the rolling window.
	last map[int]time.Duration
}

func newFailureTracker(cfg failureTrackerConfig) *failureTracker {
	return &failureTracker{
		cfg:           cfg.withDefaults(),
		crashes:       make(map[int][]time.Duration),
		quarantinedAt: make(map[int]time.Duration),
		last:          make(map[int]time.Duration),
	}
}

// RecordFailure logs a crash of the shard at virtual time now and
// reports whether this crash pushed the shard into quarantine (true only
// on the entering transition, so callers can count quarantine events).
func (ft *failureTracker) RecordFailure(shard int, now time.Duration) bool {
	recent := ft.prune(shard, now)
	recent = append(recent, now)
	ft.crashes[shard] = recent
	ft.last[shard] = now
	if _, in := ft.quarantinedAt[shard]; in {
		// Already quarantined: the new crash extends probation via
		// lastCrash but is not a fresh quarantine event.
		return false
	}
	if len(recent) >= ft.cfg.maxFailures {
		ft.quarantinedAt[shard] = now
		return true
	}
	return false
}

// Quarantined reports whether the shard is quarantined at virtual time
// now, releasing it (and forgetting its history) when probation has
// elapsed since its last crash.
func (ft *failureTracker) Quarantined(shard int, now time.Duration) bool {
	if _, in := ft.quarantinedAt[shard]; !in {
		return false
	}
	if now-ft.last[shard] >= ft.cfg.probation {
		// Probation served: clean slate.
		delete(ft.quarantinedAt, shard)
		delete(ft.crashes, shard)
		delete(ft.last, shard)
		return false
	}
	return true
}

// prune drops crashes older than the window and returns the survivors.
func (ft *failureTracker) prune(shard int, now time.Duration) []time.Duration {
	recent := ft.crashes[shard]
	for len(recent) > 0 && now-recent[0] > ft.cfg.window {
		recent = recent[1:]
	}
	ft.crashes[shard] = recent
	return recent
}
