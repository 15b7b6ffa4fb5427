package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"servo/internal/blob"
	"servo/internal/cluster"
	"servo/internal/core"
	"servo/internal/faas"
	"servo/internal/metrics"
	"servo/internal/mve"
)

// class is an availability class: some metrics, events, placements and
// spec sections only exist when the matching backend is configured. has
// is the one predicate validation and report collection consult, so a
// row is absent from the report exactly when an assertion on it is
// rejected; requires is the phrase Spec.require prints.
type class struct {
	has      func(*Spec) bool
	requires string
}

var (
	always          = &class{has: func(*Spec) bool { return true }}
	needsSC         = &class{func(s *Spec) bool { return s.Backend.Constructs }, "backend.constructs"}
	needsTG         = &class{func(s *Spec) bool { return s.Backend.Terrain }, "backend.terrain"}
	needsFaaS       = &class{func(s *Spec) bool { return s.Backend.Constructs || s.Backend.Terrain }, "a serverless function backend"}
	needsCache      = &class{func(s *Spec) bool { return s.Backend.Storage }, "backend.storage"} // the terrain cache
	needsStore      = &class{func(s *Spec) bool { return s.Backend.Storage || s.Backend.LocalStore }, "a storage backend"}
	needsCluster    = &class{func(s *Spec) bool { return s.Shards > 1 }, "shards > 1"}
	needsVisibility = &class{func(s *Spec) bool { return s.Visibility != nil }, "a visibility section"} // validation ties it to shards > 1
)

// metricDef is one row of the metric table: everything the harness knows
// about a scenario metric. Exactly one of read, tick and shard is set.
type metricDef struct {
	name  string
	class *class
	// delta rows are reported as growth since the warm-up snapshot; the
	// rest are gauges or whole-run values. Counters stay far below 2^53,
	// so differencing the float64 readings is exact.
	delta bool
	// read is the end-of-run reading of a counter or gauge.
	read func(*Runner) float64
	// tick computes a tick row over a sample: the pooled post-warm-up
	// ticks for the report, the ticks inside [from, to] for a windowed
	// assertion.
	tick func(*metrics.Sample) float64
	// shard reads a per-shard row, reported once per shard slot after the
	// other rows; its name is the pattern the slot index is printed into.
	shard func(r *Runner, slot int) float64
	// never is what a per-shard row answers for a slot below the
	// autoscale ceiling that was never created.
	never float64
	// window recomputes a non-tick row over [from, to]. Rows with tick or
	// window are the ones assertions may window: everything recomputable
	// from a per-tick or sampled time series.
	window func(r *Runner, from, to time.Duration) float64
}

func (m *metricDef) windowable() bool { return m.tick != nil || m.window != nil }

// Rows another row or the engine refers to, named so the reference is
// checked by the compiler.
var (
	// viewMargin is the distance in blocks from the closest player to the
	// nearest missing terrain (Fig. 10 QoS). Windowed, it is the minimum
	// of a once-per-second sample: the QoS floor over the window.
	viewMargin = metricDef{name: "view_margin", class: always, read: minViewMargin, window: (*Runner).windowViewMargin}

	cacheHits   = metricDef{name: "cache_hits", class: needsCache, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Cache.Hits.Value() })}
	cacheMisses = metricDef{name: "cache_misses", class: needsCache, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Cache.Misses.Value() })}
)

// metricTable is the metric registry: the rows of the scenario report in
// report order. To add a metric, add a row. Duration-valued metrics are
// reported in milliseconds; on a sharded system the scalar rows are sums
// (or pooled samples) across shards.
var metricTable = []metricDef{
	{name: "ticks_total", class: always, tick: func(t *metrics.Sample) float64 { return float64(t.Len()) }},
	{name: "ticks_over_budget", class: always, tick: func(t *metrics.Sample) float64 { return float64(t.CountAbove(mve.QoSThreshold)) }}, // ticks above the 50 ms QoS bound
	{name: "over_budget_frac", class: always, tick: func(t *metrics.Sample) float64 { return t.FracAbove(mve.QoSThreshold) }},
	{name: "tick_p50_ms", class: always, tick: tickPercentile(50)},
	{name: "tick_p90_ms", class: always, tick: tickPercentile(90)},
	{name: "tick_p95_ms", class: always, tick: tickPercentile(95)},
	{name: "tick_p99_ms", class: always, tick: tickPercentile(99)},
	{name: "tick_max_ms", class: always, tick: func(t *metrics.Sample) float64 { return msOf(t.Max()) }},
	{name: "tick_mean_ms", class: always, tick: func(t *metrics.Sample) float64 { return msOf(t.Mean()) }},
	{name: "players_final", class: always, read: func(r *Runner) float64 { return float64(r.sys.Cluster.PlayerCount()) }},
	{name: "players_peak", class: always, read: func(r *Runner) float64 { return float64(r.peak) }},
	// The zero-loss audit: every join the harness made, minus confirmed
	// leaves, minus whoever is still connected (0 = zero-loss). Positive
	// means the system dropped sessions on the floor (e.g. during a drain
	// or failover); a transient negative can occur when a disconnect raced
	// an in-flight handoff that the run ended before settling.
	{name: "players_lost", class: always, read: func(r *Runner) float64 { return float64(r.joins - r.leaves - r.sys.Cluster.PlayerCount()) }},
	{name: "actions", class: always, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Server.ActionCount.Value() })},
	{name: "chats_delivered", class: always, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Server.ChatsDelivered.Value() })}, // cluster-wide when sharded
	{name: "chunks_applied", class: always, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Server.ChunksApplied.Value() })},
	{name: "chunks_sent", class: always, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Server.ChunksSent.Value() })},
	viewMargin,
	{name: "constructs", class: always, read: sumShards(func(sh *core.ShardComponents) int64 { return int64(sh.Server.SCs().Count()) })},
	{name: "constructs_resumed", class: always, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Server.ConstructsResumed.Value() })},
	{name: "spec_efficiency_median", class: needsSC, read: specEfficiencyMedian},
	{name: "invalidations", class: needsSC, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.SpecExec.Discards.Value() })}, // speculation discards (§III-C)
	{name: "sc_invocations", class: needsSC, delta: true, read: func(r *Runner) float64 { return float64(r.sys.SCFn.Invocations.Count()) }},
	{name: "sc_cold_starts", class: needsSC, delta: true, read: func(r *Runner) float64 { return float64(r.sys.SCFn.ColdStarts.Value()) }},
	{name: "tg_invocations", class: needsTG, delta: true, read: func(r *Runner) float64 { return float64(r.sys.TGFn.Invocations.Count()) }},
	{name: "tg_cold_starts", class: needsTG, delta: true, read: func(r *Runner) float64 { return float64(r.sys.TGFn.ColdStarts.Value()) }},
	{name: "tg_failures", class: needsTG, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return int64(sh.TGBackend.Failures) })},   // failed generation invocations (incl. retried)
	{name: "gen_deduped", class: needsTG, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return int64(sh.TGBackend.GenDeduped) })}, // seam chunks adopted from the cross-shard dedup cache
	{name: "cold_starts", class: needsFaaS, delta: true, read: sumFunctions(func(f *faas.Function) int64 { return f.ColdStarts.Value() })},
	{name: "faas_faults", class: needsFaaS, delta: true, read: sumFunctions(func(f *faas.Function) int64 { return f.FaultsInjected.Value() })},
	cacheHits,
	cacheMisses,
	{name: "cache_hit_rate", class: needsCache, read: cacheHitRate},
	{name: "prefetch_issued", class: needsCache, delta: true, read: sumShards(func(sh *core.ShardComponents) int64 { return sh.Cache.PrefetchIssued.Value() })},
	{name: "storage_reads", class: needsStore, delta: true, read: sumStores(func(st *blob.Store) int64 { return st.Reads.Value() })},
	{name: "storage_writes", class: needsStore, delta: true, read: sumStores(func(st *blob.Store) int64 { return st.Writes.Value() })},
	{name: "storage_faults", class: needsStore, delta: true, read: sumStores(func(st *blob.Store) int64 { return st.FaultsInjected.Value() })},
	// p99 covers the serverless/remote store only (the flip's local side
	// has local-disk latency and would skew the tail).
	{name: "storage_read_p99_ms", class: needsStore, read: func(r *Runner) float64 { return msOf(r.sys.Remote.ReadLatency.Percentile(99)) }},
	{name: "shards", class: needsCluster, read: func(r *Runner) float64 { return float64(len(r.sys.Shards)) }},
	{name: "handoffs", class: needsCluster, delta: true, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.Handoffs.Value()) })}, // completed cross-shard handoffs
	{name: "handoff_mean_ms", class: needsCluster, read: ofCluster(func(cl *cluster.Cluster) float64 { return msOf(cl.HandoffLatency.Mean()) })},
	{name: "handoff_p99_ms", class: needsCluster, read: ofCluster(func(cl *cluster.Cluster) float64 { return msOf(cl.HandoffLatency.Percentile(99)) })},
	// Max over shards of mean tick duration, divided by the cross-shard
	// mean (1 = perfectly balanced). Windowed, the per-shard means are
	// recomputed inside the window, so a spec can assert that imbalance
	// spiked after a hotspot event and decreased once the controller
	// rebalanced.
	{name: "load_imbalance", class: needsCluster, read: loadImbalance, window: (*Runner).windowImbalance},
	{name: "ownership_epoch", class: needsCluster, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.Epoch()) })},                              // ownership-table version (migrations + failovers)
	{name: "rebalances", class: needsCluster, delta: true, read: journalCount(cluster.Rebalance)},                                                                  // controller rebalance decisions
	{name: "tiles_moved", class: needsCluster, delta: true, read: journalCount(cluster.MoveRebalance, cluster.MoveDrain, cluster.MoveScaleUp, cluster.MoveSpread)}, // completed tile-ownership migrations
	{name: "failovers", class: needsCluster, delta: true, read: journalCount(cluster.Failover)},                                                                    // shards failed over
	{name: "players_failed_over", class: needsCluster, delta: true, read: journalCount(cluster.FailedOver)},
	{name: "shards_active", class: needsCluster, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.AliveCount()) })},                                  // alive shards at end of run
	{name: "shards_peak", class: needsCluster, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.ShardsPeak) })},                                      // highest alive shard count seen
	{name: "scale_ups", class: needsCluster, delta: true, read: journalCount(cluster.ScaleUp)},                                                                            // shards added at runtime
	{name: "scale_downs", class: needsCluster, delta: true, read: journalCount(cluster.ScaleDown)},                                                                        // shards drained and retired
	{name: "quarantines", class: needsCluster, delta: true, read: journalCount(cluster.Quarantine)},                                                                       // crash-loop quarantine entries
	{name: "tiles_drained", class: needsCluster, delta: true, read: journalCount(cluster.MoveDrain)},                                                                      // tiles migrated off draining shards
	{name: "ghost_avatars", class: needsVisibility, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.GhostCount()) })},                               // live ghost avatars at end of run
	{name: "ghost_updates", class: needsVisibility, delta: true, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.GhostUpdates.Value()) })},          // digest entries applied to ghost registries
	{name: "visibility_gap_ticks", class: needsVisibility, delta: true, read: ofCluster(func(cl *cluster.Cluster) float64 { return float64(cl.VisibilityGaps.Value()) })}, // replication scans with an unserved visible pair
	{name: "cost_dollars", class: always, read: costDollars},                                                                                                              // FaaS + storage billing over the whole run

	// Per-shard rollup rows. A shard added after warm-up has no snapshot:
	// its counters started at zero inside the measured window.
	{name: "shard%d_ticks_total", class: needsCluster, shard: func(r *Runner, i int) float64 { return float64(r.sys.Shards[i].Server.TickDurations.Len()) }},
	{name: "shard%d_tick_p50_ms", class: needsCluster, shard: func(r *Runner, i int) float64 { return msOf(r.sys.Shards[i].Server.TickDurations.Percentile(50)) }},
	{name: "shard%d_tick_p99_ms", class: needsCluster, shard: func(r *Runner, i int) float64 { return msOf(r.sys.Shards[i].Server.TickDurations.Percentile(99)) }},
	{name: "shard%d_players_final", class: needsCluster, shard: func(r *Runner, i int) float64 { return float64(r.sys.Shards[i].Server.PlayerCount()) }},
	{name: "shard%d_handoffs_in", class: needsCluster, delta: true, shard: func(r *Runner, i int) float64 { return float64(r.sys.Cluster.HandoffsIn[i].Value()) }},
	{name: "shard%d_handoffs_out", class: needsCluster, delta: true, shard: func(r *Runner, i int) float64 { return float64(r.sys.Cluster.HandoffsOut[i].Value()) }},
	// Membership span: the first and last tick this shard slot ever ran
	// (warm-up included), so a report over a dynamic shard set shows when
	// each shard was active. -1 = the slot never ticked.
	{name: "shard%d_first_active_ms", class: needsCluster, never: -1, shard: activeSpan(func(times []time.Duration) time.Duration { return times[0] })},
	{name: "shard%d_last_active_ms", class: needsCluster, never: -1, shard: activeSpan(func(times []time.Duration) time.Duration { return times[len(times)-1] })},
}

// findMetric resolves a reported or asserted metric name to its row.
// slot is the index a per-shard name carries, -1 for every other row.
func findMetric(name string) (m *metricDef, slot int, ok bool) {
	pattern, slot := name, -1
	if rest, found := strings.CutPrefix(name, "shard"); found {
		if sep := strings.IndexByte(rest, '_'); sep > 0 {
			if n, err := strconv.Atoi(rest[:sep]); err == nil && n >= 0 {
				pattern, slot = "shard%d"+rest[sep:], n
			}
		}
	}
	for i := range metricTable {
		m := &metricTable[i]
		if m.name == pattern && (m.shard != nil) == (slot >= 0) {
			return m, slot, true
		}
	}
	return nil, 0, false
}

// snapshotBaseline records every available delta row at the end of
// warm-up. Membership may have grown past the boot set by then (autoscale
// fires during warm-up too); the per-shard rows cover whatever exists.
func (r *Runner) snapshotBaseline() {
	r.base = make(map[string]float64)
	for i := range metricTable {
		m := &metricTable[i]
		switch {
		case !m.delta || !m.class.has(r.spec):
		case m.shard == nil:
			r.base[m.name] = m.read(r)
		default:
			for slot := range r.sys.Shards {
				r.base[fmt.Sprintf(m.name, slot)] = m.shard(r, slot)
			}
		}
	}
}

// scalar is a read row's report value: growth since the warm-up snapshot
// for delta rows (only they have one), the reading itself otherwise.
func (r *Runner) scalar(m *metricDef) float64 { return m.read(r) - r.base[m.name] }

// collectMetrics reads every available row in table order: the report's
// metric list.
func (r *Runner) collectMetrics() []Metric {
	// Pool every shard's post-warm-up ticks for the cluster-wide tick
	// statistics (a single-shard system pools trivially).
	ticks := &metrics.Sample{}
	for _, sh := range r.sys.Shards {
		ticks.AddAll(sh.Server.TickDurations.Values())
	}
	var out []Metric
	for i := range metricTable {
		m := &metricTable[i]
		switch {
		case m.shard != nil || !m.class.has(r.spec):
		case m.tick != nil:
			out = append(out, Metric{m.name, m.tick(ticks)})
		default:
			out = append(out, Metric{m.name, r.scalar(m)})
		}
	}
	for slot := range r.sys.Shards {
		for i := range metricTable {
			if m := &metricTable[i]; m.shard != nil && m.class.has(r.spec) {
				name := fmt.Sprintf(m.name, slot)
				out = append(out, Metric{name, m.shard(r, slot) - r.base[name]})
			}
		}
	}
	return out
}

// check evaluates one assertion against the collected metrics.
func (r *Runner) check(a Assertion, collected []Metric) Check {
	m, slot, _ := findMetric(a.Metric) // Validate vetted the name
	var actual float64
	switch {
	case a.Windowed() && m.tick != nil:
		actual = m.tick(r.windowTicks(a.From.D(), a.To.D()))
	case a.Windowed():
		actual = m.window(r, a.From.D(), a.To.D())
	case slot >= len(r.sys.Shards):
		actual = m.never
	default:
		for _, c := range collected {
			if c.Name == a.Metric {
				actual = c.Value
				break
			}
		}
	}
	return Check{Assertion: a, Actual: actual, Ok: a.holds(actual)}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func tickPercentile(p float64) func(*metrics.Sample) float64 {
	return func(t *metrics.Sample) float64 { return msOf(t.Percentile(p)) }
}

// sumShards reads a counter every shard keeps and sums it.
func sumShards(f func(*core.ShardComponents) int64) func(*Runner) float64 {
	return func(r *Runner) float64 {
		var n int64
		for _, sh := range r.sys.Shards {
			n += f(sh)
		}
		return float64(n)
	}
}

// sumFunctions sums a counter over the deployed functions.
func sumFunctions(f func(*faas.Function) int64) func(*Runner) float64 {
	return func(r *Runner) float64 {
		var n int64
		for _, fn := range []*faas.Function{r.sys.SCFn, r.sys.TGFn} {
			if fn != nil {
				n += f(fn)
			}
		}
		return float64(n)
	}
}

// sumStores sums a counter over the object store and, when the scenario
// flips storage, the flip's local side.
func sumStores(f func(*blob.Store) int64) func(*Runner) float64 {
	return func(r *Runner) float64 {
		n := f(r.sys.Remote)
		if r.localAlt != nil {
			n += f(r.localAlt)
		}
		return float64(n)
	}
}

func ofCluster(f func(*cluster.Cluster) float64) func(*Runner) float64 {
	return func(r *Runner) float64 { return f(r.sys.Cluster) }
}

// journalCount reads the cluster journal's total of the given kinds.
func journalCount(kinds ...cluster.Kind) func(*Runner) float64 {
	return func(r *Runner) float64 { return float64(r.sys.Cluster.Journal.Count(kinds...)) }
}

func minViewMargin(r *Runner) float64 {
	margin := -1
	for _, sh := range r.sys.Shards {
		if vm := sh.Server.MinViewMargin(); margin < 0 || vm < margin {
			margin = vm
		}
	}
	return float64(margin)
}

func specEfficiencyMedian(r *Runner) float64 {
	var efficiency []float64
	for _, sh := range r.sys.Shards {
		efficiency = append(efficiency, sh.SpecExec.Efficiency...)
	}
	if len(efficiency) == 0 {
		return 0
	}
	sort.Float64s(efficiency)
	return efficiency[len(efficiency)/2]
}

func cacheHitRate(r *Runner) float64 {
	hits, misses := r.scalar(&cacheHits), r.scalar(&cacheMisses)
	if hits+misses > 0 {
		return hits / (hits + misses)
	}
	return 0
}

func loadImbalance(r *Runner) float64 {
	var loads []float64
	for _, sh := range r.sys.Shards {
		loads = append(loads, float64(sh.Server.TickDurations.Mean()))
	}
	return metrics.ImbalanceRatio(loads)
}

// costDollars is the whole run's FaaS + storage bill. The summation
// order is part of the report's bytes.
func costDollars(r *Runner) float64 {
	cost := 0.0
	for _, fn := range []*faas.Function{r.sys.SCFn, r.sys.TGFn} {
		if fn != nil {
			cost += fn.BilledDollars()
		}
	}
	for _, st := range []*blob.Store{r.localAlt, r.sys.Remote} {
		if st != nil {
			cost += st.BilledDollars()
		}
	}
	return cost
}

// activeSpan reads one end of a shard slot's tick series.
func activeSpan(pick func(times []time.Duration) time.Duration) func(*Runner, int) float64 {
	return func(r *Runner, slot int) float64 {
		times, _ := r.sys.Shards[slot].Server.TickSeries.Points()
		if len(times) == 0 {
			return -1
		}
		return msOf(pick(times))
	}
}
