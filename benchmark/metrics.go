package main

import "sort"

// metricDef names one metric and its unit. The two tables below are the
// program's half of the contract BENCHMARK.json declares; a test holds
// them equal.
type metricDef struct{ Name, Unit string }

// endToEnd lists what a user of the system would see. Every workload
// reports every one of them (the driver requires it); what each reads on a
// workload it was not made for is in tails below and in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"vsec_per_wallsec", "vs/s"},
	{"cpu_ms_per_vsec", "ms/vs"},
	{"alloc_mb_per_vsec", "MB/vs"},
	{"slice_wall_ms_p95", "ms"},
	{"live_heap_mb", "MB"},
	{"action_to_update_ms_p50", "ms"},
	{"action_to_update_ms_p95", "ms"},
	{"update_gap_ms_p95", "ms"},
	{"cpu_ms_per_wallsec", "ms/s"},
}

// cpuLayers are the layers the CPU profile is split over: every
// servo/internal package that does work at run time.
var cpuLayers = []string{
	"sim", "mve", "workload", "core", "specexec", "sc", "tgen", "terrain", "faas",
	"world", "rstore", "tcache", "blob", "cluster", "netproto", "rtserve", "metrics",
}

// perLayer lists the single-layer observations of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_ops_pct", "%"},
		{"trace_overhead_pct", "%"},
		{"loadgen.cpu_share_pct", "%"},
		{"runtime.gc_cpu_ms_per_vsec", "ms/vs"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_ms_per_vsec", "ms/vs"})
	}
	return append(defs, []metricDef{
		{"sim.slice_wall_ms_p99", "ms"},
		{"sim.slice_wall_ms_max", "ms"},
		{"sim.slice_self_ms_per_vsec", "ms/vs"},
		{"sim.wave_parallelism_x", "x"},
		{"sim.wall_over_cpu_x", "x"},
		{"mve.ticks_per_vsec", "1/vs"},
		{"mve.actions_per_vsec", "1/vs"},
		{"mve.chunks_applied_per_vsec", "1/vs"},
		{"mve.chunks_sent_per_vsec", "1/vs"},
		{"mve.terrain_recomputes_per_vsec", "1/vs"},
		{"mve.scan_demand_ns_per_player", "ns"},
		{"mve.tick_p99_vms", "vms"},
		{"mve.over_budget_pct", "%"},
		{"specexec.invocations_per_vsec", "1/vs"},
		{"specexec.invalidations_per_vsec", "1/vs"},
		{"specexec.efficiency_median", "ratio"},
		{"sc.step_ns_250blk", "ns"},
		{"tgen.invocations_per_vsec", "1/vs"},
		{"tgen.dedup_ratio", "ratio"},
		{"tgen.failures", "count"},
		{"terrain.generate_ns_per_chunk", "ns"},
		{"faas.cold_starts", "count"},
		{"world.encode_ns_per_chunk", "ns"},
		{"world.decode_ns_per_chunk", "ns"},
		{"world.encoded_bytes_per_chunk", "B"},
		{"world.pool_recycle_ratio", "ratio"},
		{"rstore.store_call_ms_per_vsec", "ms/vs"},
		{"rstore.load_call_ms_per_vsec", "ms/vs"},
		{"rstore.observe_call_ms_per_vsec", "ms/vs"},
		{"rstore.stores_per_vsec", "1/vs"},
		{"rstore.loads_per_vsec", "1/vs"},
		{"tcache.hit_ratio", "ratio"},
		{"tcache.prefetch_per_vsec", "1/vs"},
		{"blob.reads_per_vsec", "1/vs"},
		{"blob.writes_per_vsec", "1/vs"},
		{"blob.faults", "count"},
		{"cluster.visibility_scan_ns", "ns"},
		{"cluster.digest_encode_ns_per_entry", "ns"},
		{"cluster.handoffs_per_vsec", "1/vs"},
		{"cluster.ghost_updates_per_vsec", "1/vs"},
		{"cluster.handoff_p99_vms", "vms"},
		{"netproto.encode_state_ns", "ns"},
		{"netproto.decode_state_ns", "ns"},
		{"netproto.encode_chunk_ns", "ns"},
		{"netproto.allocs_per_msg", "count"},
		{"netproto.bytes_per_client_per_s", "B/s"},
		{"rtserve.ping_rtt_us_p50", "us"},
		{"rtserve.ping_rtt_us_p95", "us"},
		{"rtserve.updates_per_client_per_s", "1/s"},
		{"rtserve.chunks_per_client_per_s", "1/s"},
	}...)
}()

// pooled concatenates one per-unit sample across units and sorts it.
func pooled(units []*unit, pick func(*unit) []float64) []float64 {
	var all []float64
	for _, u := range units {
		all = append(all, pick(u)...)
	}
	sort.Float64s(all)
	return all
}

// tails are the end-to-end metrics that are percentiles of a sample taken
// many times per unit. rt-loopback takes the three client-side ones at its
// probes and the slice time from the tick numbers its state updates carry.
// The virtual-clock workloads time every slice; no client is attached to
// them, a bot's action is decided and applied inside one tick and a push
// would follow every second tick, so there the action-to-update time is
// the wall time of a slice and the update gap that of two in a row.
var tails = []struct {
	name string
	p    float64
	pick func(*unit) []float64
}{
	{"slice_wall_ms_p95", 95, func(u *unit) []float64 { return u.SliceMs }},
	{"action_to_update_ms_p50", 50, func(u *unit) []float64 { return u.ActionMs }},
	{"action_to_update_ms_p95", 95, func(u *unit) []float64 { return u.ActionMs }},
	{"update_gap_ms_p95", 95, func(u *unit) []float64 { return u.GapMs }},
}

// unitEndToEnd computes every end-to-end metric from one unit alone: the
// per-unit values whose spread is the run's noise floor.
func unitEndToEnd(u *unit, onceS float64) map[string]float64 {
	out := map[string]float64{
		"setup_s":            onceS + u.SetupS,
		"vsec_per_wallsec":   u.VSec / u.WallS,
		"cpu_ms_per_vsec":    u.CPUMs / u.VSec,
		"alloc_mb_per_vsec":  u.AllocMB / u.VSec,
		"live_heap_mb":       u.LiveHeapMB,
		"cpu_ms_per_wallsec": u.CPUMs / u.WallS,
	}
	for _, t := range tails {
		out[t.name] = percentile(sortedCopy(t.pick(u)), t.p)
	}
	return out
}

// endToEndValues reduces a run's units to its end-to-end metrics: the
// median of the units' own values, except that a percentile is taken over
// the samples of all units pooled, so that it has the whole run's count
// behind it (a unit alone leaves a p95 a handful of samples beyond it).
func endToEndValues(units []*unit, onceS float64) (values map[string]float64, spreads map[string]spread, per map[string][]float64) {
	per = make(map[string][]float64)
	for _, u := range units {
		for k, v := range unitEndToEnd(u, onceS) {
			per[k] = append(per[k], v)
		}
	}
	values = make(map[string]float64, len(per))
	spreads = make(map[string]spread, len(per))
	for k, v := range per {
		spreads[k] = summarise(v)
		values[k] = spreads[k].Median
	}
	for _, t := range tails {
		values[t.name] = percentile(pooled(units, t.pick), t.p)
	}
	return values, spreads, per
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues reduces a traced run's units to the per-layer metrics.
// Counter rates use every unit; CPU attribution, spans and direct timings
// come from the traced ones; the overhead compares the two kinds.
func perLayerValues(wl string, units []*unit) map[string]float64 {
	var traced, plain []*unit
	for _, u := range units {
		if u.LayerNs != nil {
			traced = append(traced, u)
		} else {
			plain = append(plain, u)
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	over := func(us []*unit, f func(*unit) float64) float64 {
		v := make([]float64, len(us))
		for i, u := range us {
			v[i] = f(u)
		}
		return median(v)
	}
	perVsec := func(key string) float64 {
		return over(units, func(u *unit) float64 { return u.Counts[key] / u.VSec })
	}
	total := func(key string) float64 {
		return over(units, func(u *unit) float64 { return u.Counts[key] })
	}

	var attempted, failed int64
	for _, u := range units {
		attempted += u.Attempted
		failed += u.Failed
	}
	out["failed_ops_pct"] = ratio(float64(failed), float64(attempted)) * 100

	// Tracing overhead: traced against untraced windows of the same work.
	// rt-loopback's window is a fixed wall time, so its cost shows as CPU.
	cost := func(u *unit) float64 { return u.WallS }
	if wl == "rt-loopback" {
		cost = func(u *unit) float64 { return u.CPUMs }
	}
	if len(traced) > 0 && len(plain) > 0 {
		out["trace_overhead_pct"] = (over(traced, cost)/over(plain, cost) - 1) * 100
	}

	// CPU by layer: profile shares of the traced windows, scaled to the
	// CPU time getrusage measured over the same windows.
	var layerNs = map[string]int64{}
	var profNs int64
	for _, u := range traced {
		for l, ns := range u.LayerNs {
			layerNs[l] += ns
			profNs += ns
		}
	}
	cpuPerVsec := over(traced, func(u *unit) float64 { return u.CPUMs / u.VSec })
	share := func(l string) float64 { return ratio(float64(layerNs[l]), float64(profNs)) }
	for _, l := range cpuLayers {
		out[l+".cpu_ms_per_vsec"] = share(l) * cpuPerVsec
	}
	out["runtime.gc_cpu_ms_per_vsec"] = share(layerRuntime) * cpuPerVsec
	out["loadgen.cpu_share_pct"] = share(layerLoadgen) * 100

	slices := pooled(units, func(u *unit) []float64 { return u.SliceMs })
	out["sim.slice_wall_ms_p99"] = percentile(slices, 99)
	out["sim.slice_wall_ms_max"] = percentile(slices, 100)
	out["sim.slice_self_ms_per_vsec"] = over(traced, func(u *unit) float64 {
		return float64(selfTimes(u.Spans)["slice"].Nanoseconds()) / 1e6 / u.VSec
	})
	out["sim.wave_parallelism_x"] = total("sim.wave_parallelism_x")
	out["sim.wall_over_cpu_x"] = over(units, func(u *unit) float64 { return u.WallS * 1e3 / u.CPUMs })

	out["mve.ticks_per_vsec"] = perVsec("mve.ticks")
	out["mve.actions_per_vsec"] = perVsec("mve.actions")
	out["mve.chunks_applied_per_vsec"] = perVsec("mve.chunks_applied")
	out["mve.chunks_sent_per_vsec"] = perVsec("mve.chunks_sent")
	out["mve.terrain_recomputes_per_vsec"] = perVsec("mve.terrain_recomputes")
	out["mve.tick_p99_vms"] = total("mve.tick_p99_vms")
	out["mve.over_budget_pct"] = total("mve.over_budget_pct")
	out["specexec.invocations_per_vsec"] = perVsec("specexec.invocations")
	out["specexec.invalidations_per_vsec"] = perVsec("specexec.invalidations")
	out["specexec.efficiency_median"] = total("specexec.efficiency_median")
	out["tgen.invocations_per_vsec"] = perVsec("tgen.invocations")
	out["tgen.dedup_ratio"] = ratio(total("tgen.invocations")+total("tgen.deduped"), total("tgen.invocations"))
	out["tgen.failures"] = total("tgen.failures")
	out["faas.cold_starts"] = total("faas.cold_starts")
	out["world.pool_recycle_ratio"] = ratio(total("world.pool_recycled"), total("world.pool_recycled")+total("world.pool_fresh"))
	out["rstore.store_call_ms_per_vsec"] = perVsec("store.store_ns") / 1e6
	out["rstore.load_call_ms_per_vsec"] = perVsec("store.load_ns") / 1e6
	out["rstore.observe_call_ms_per_vsec"] = perVsec("store.observe_ns") / 1e6
	out["rstore.stores_per_vsec"] = perVsec("store.stores")
	out["rstore.loads_per_vsec"] = perVsec("store.loads")
	out["tcache.hit_ratio"] = ratio(total("tcache.hits"), total("tcache.hits")+total("tcache.misses"))
	out["tcache.prefetch_per_vsec"] = perVsec("tcache.prefetch")
	out["blob.reads_per_vsec"] = perVsec("blob.reads")
	out["blob.writes_per_vsec"] = perVsec("blob.writes")
	out["blob.faults"] = total("blob.faults")
	out["cluster.handoffs_per_vsec"] = perVsec("cluster.handoffs")
	out["cluster.ghost_updates_per_vsec"] = perVsec("cluster.ghost_updates")
	out["cluster.handoff_p99_vms"] = total("cluster.handoff_p99_vms")

	if wl == "rt-loopback" {
		pings := pooled(units, func(u *unit) []float64 { return u.PingUs })
		out["rtserve.ping_rtt_us_p50"] = percentile(pings, 50)
		out["rtserve.ping_rtt_us_p95"] = percentile(pings, 95)
		perClient := func(key string) float64 {
			return over(units, func(u *unit) float64 { return u.Counts[key] / u.Counts["rt.probes"] / u.WallS })
		}
		out["netproto.bytes_per_client_per_s"] = perClient("rt.bytes")
		out["rtserve.updates_per_client_per_s"] = perClient("rt.updates")
		out["rtserve.chunks_per_client_per_s"] = perClient("rt.chunks")
	}

	// Direct-call timings were taken once, on the first traced unit.
	for _, u := range traced {
		for k, v := range u.Direct {
			out[k] = v
		}
	}
	return out
}
