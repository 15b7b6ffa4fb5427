package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"servo/internal/blob"
	"servo/internal/faas"
	"servo/internal/workload"
)

// Event kinds.
const (
	EvFlashCrowd     = "flash_crowd"      // Count players join at once
	EvDisconnect     = "disconnect"       // Count newest players leave
	EvSpawnSCs       = "spawn_constructs" // Count constructs activate
	EvFaasChaos      = "faas_chaos"       // FaaS failure/slowdown window
	EvStorageChaos   = "storage_chaos"    // storage brownout window
	EvColdStartStorm = "cold_start_storm" // warm pools evicted repeatedly
	EvFlipStorage    = "flip_storage"     // switch chunk store backend
	EvShardFail      = "shard_fail"       // kill one shard's loop (failover)
)

// Event is one timed intervention. Kind selects which of the optional
// fields apply (the kind's row in eventTable lists them); At and Kind
// come first, every later field is optional.
type Event struct {
	At   Span   `json:"at"`
	Kind string `json:"kind"`

	// flash_crowd, disconnect, spawn_constructs.
	Count    int    `json:"count,omitempty"`
	Behavior string `json:"behavior,omitempty"` // flash_crowd; "" → "R"
	Blocks   int    `json:"blocks,omitempty"`   // spawn_constructs; 0 → 250
	// flash_crowd: land the crowd at this region tile's center instead
	// of at world spawn, building a hotspot inside one shard's territory
	// (requires a sharded scenario).
	Tile *[2]int `json:"tile,omitempty"`

	// shard_fail: which shard's loop to kill.
	Shard *int `json:"shard,omitempty"`
	// shard_fail: when to rebuild the shard over the persisted world
	// (absolute scenario time, after at; 0 → the shard stays dead).
	RecoverAt Span `json:"recover_at,omitempty"`

	// faas_chaos, storage_chaos, cold_start_storm: window length.
	Duration Span `json:"duration,omitempty"`
	// faas_chaos: probability an invocation fails.
	FailureRate float64 `json:"failure_rate,omitempty"`
	// storage_chaos: probability an operation fails.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// faas_chaos / storage_chaos: latency multiplier (> 1 slows down).
	LatencyFactor float64 `json:"latency_factor,omitempty"`
	// faas_chaos: every invocation pays a cold start for the window.
	ForceCold bool `json:"force_cold,omitempty"`

	// flip_storage: "local" or "serverless".
	Target string `json:"target,omitempty"`
	// faas_chaos: target one deployed function by name
	// ("simulate-construct" or "generate-terrain") instead of the whole
	// platform. A function-level window fully overrides the platform-wide
	// injector for that function.
	Function string `json:"function,omitempty"`
}

// setKeys returns the optional JSON keys the event sets, in field order
// (the order the stray-field check reports them in).
func (e *Event) setKeys() []string {
	var keys []string
	v := reflect.ValueOf(*e)
	for i := 2; i < v.NumField(); i++ { // past at and kind
		if !v.Field(i).IsZero() {
			key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			keys = append(keys, key)
		}
	}
	return keys
}

// slot names the injector a chaos window occupies. Windows targeting
// different functions occupy different slots and may overlap freely (a
// function-level window fully overrides the platform-wide one).
func (e *Event) slot() string { return e.Kind + "/" + e.Function }

// eventDef is one row of the event table: everything the harness knows
// about an event kind.
type eventDef struct {
	kind string
	// keys are the optional JSON keys the kind reads.
	// DisallowUnknownFields catches misspelled keys; any other key set on
	// an event of this kind is refused as stray, so a knob the author set
	// is never silently dropped.
	keys []string
	// needs are the availability classes (metrics.go) the spec must
	// satisfy for the kind's target to exist.
	needs []*class
	// check validates the kind's own fields and fills their defaults.
	check func(s *Spec, ctx string, e *Event) error
	// window marks the kinds whose [at, at+duration) occupies an injector
	// slot (Event.slot): the duration is required, and overlapping windows
	// on one slot would make the effective settings ambiguous.
	window bool
	// fire executes the event. Validation has already checked that the
	// targeted component exists.
	fire func(*Runner, Event)
}

// eventTable is the event registry. To add a kind, add a row (and a field
// of Event for any new JSON key).
var eventTable = []eventDef{
	{kind: EvFlashCrowd, keys: []string{"count", "behavior", "tile"}, check: checkFlashCrowd, fire: (*Runner).flashCrowd},
	{kind: EvDisconnect, keys: []string{"count"}, check: checkDisconnect, fire: (*Runner).disconnectNewest},
	{kind: EvSpawnSCs, keys: []string{"count", "blocks"}, check: checkSpawnSCs, fire: (*Runner).constructStorm},
	{kind: EvFaasChaos, keys: []string{"duration", "failure_rate", "latency_factor", "force_cold", "function"},
		needs: []*class{needsFaaS}, check: checkFaasChaos, window: true, fire: (*Runner).faasChaos},
	{kind: EvStorageChaos, keys: []string{"duration", "error_rate", "latency_factor"},
		needs: []*class{needsStore}, check: checkStorageChaos, window: true, fire: (*Runner).storageChaos},
	{kind: EvColdStartStorm, keys: []string{"duration"}, needs: []*class{needsFaaS}, check: checkColdStartStorm, fire: (*Runner).coldStartStorm},
	{kind: EvFlipStorage, keys: []string{"target"}, needs: []*class{needsCache}, check: checkFlipStorage, fire: (*Runner).flipStorage},
	{kind: EvShardFail, keys: []string{"shard", "recover_at"}, needs: []*class{needsCluster}, check: checkShardFail, fire: (*Runner).shardFail},
}

// findEvent resolves an event kind to its row (nil for an unknown kind).
func findEvent(kind string) *eventDef {
	for i := range eventTable {
		if eventTable[i].kind == kind {
			return &eventTable[i]
		}
	}
	return nil
}

func (s *Spec) validateEvents() error {
	windowEnd := make(map[string]Span)
	for i := range s.Events {
		e := &s.Events[i]
		if i > 0 && e.At < s.Events[i-1].At {
			return s.errf("events[%d] (%s at %s): timestamps must be non-decreasing (previous event at %s)",
				i, e.Kind, e.At, s.Events[i-1].At)
		}
		if e.At >= s.Duration {
			return s.errf("events[%d] (%s at %s): event is past the scenario duration %s and would never fire",
				i, e.Kind, e.At, s.Duration)
		}
		row := findEvent(e.Kind)
		if row == nil {
			kinds := make([]string, len(eventTable))
			for k := range eventTable {
				kinds[k] = eventTable[k].kind
			}
			return s.errf("events[%d]: unknown event kind %q (valid kinds: %v)", i, e.Kind, kinds)
		}
		ctx := fmt.Sprintf("events[%d] %s", i, e.Kind)
		if err := s.require(ctx+":", row.needs...); err != nil {
			return err
		}
		if err := row.check(s, ctx, e); err != nil {
			return err
		}
		for _, key := range e.setKeys() {
			if !slices.Contains(row.keys, key) {
				return s.errf("%s: field %q does not apply to this event kind", ctx, key)
			}
		}
		if row.window {
			if e.Duration <= 0 {
				return s.errf("%s: duration is required", ctx)
			}
			slot := e.slot()
			if e.At < windowEnd[slot] {
				return s.errf("events[%d] (%s at %s): overlaps the previous %s window (ends at %s)",
					i, e.Kind, e.At, e.Kind, windowEnd[slot])
			}
			windowEnd[slot] = e.At + e.Duration
		}
	}
	return nil
}

func checkFlashCrowd(s *Spec, ctx string, e *Event) error {
	if e.Count <= 0 {
		return s.errf("%s: count must be positive", ctx)
	}
	if e.Behavior == "" {
		e.Behavior = "R"
	}
	if !workload.Known(e.Behavior) {
		return s.errf("%s: unknown behavior %q", ctx, e.Behavior)
	}
	return e.placement().validate(s, ctx)
}

func checkDisconnect(s *Spec, ctx string, e *Event) error {
	if e.Count <= 0 {
		return s.errf("%s: count must be positive", ctx)
	}
	return nil
}

func checkSpawnSCs(s *Spec, ctx string, e *Event) error {
	if e.Count <= 0 {
		return s.errf("%s: count must be positive", ctx)
	}
	return s.checkConstructBlocks(ctx, &e.Blocks)
}

func checkFaasChaos(s *Spec, ctx string, e *Event) error {
	target := always
	switch e.Function {
	case "":
	case "simulate-construct":
		target = needsSC
	case "generate-terrain":
		target = needsTG
	default:
		return s.errf(`%s: unknown function %q (valid: "simulate-construct", "generate-terrain")`, ctx, e.Function)
	}
	if !target.has(s) {
		return s.errf("%s: function %q requires %s", ctx, e.Function, target.requires)
	}
	if e.FailureRate < 0 || e.FailureRate > 1 {
		return s.errf("%s: failure_rate must be in [0, 1]", ctx)
	}
	if e.LatencyFactor != 0 && e.LatencyFactor < 1 {
		return s.errf("%s: latency_factor must be >= 1", ctx)
	}
	if e.FailureRate == 0 && e.LatencyFactor == 0 && !e.ForceCold {
		return s.errf("%s: set failure_rate, latency_factor, and/or force_cold", ctx)
	}
	return nil
}

func checkStorageChaos(s *Spec, ctx string, e *Event) error {
	if e.ErrorRate < 0 || e.ErrorRate > 1 {
		return s.errf("%s: error_rate must be in [0, 1]", ctx)
	}
	if e.LatencyFactor != 0 && e.LatencyFactor < 1 {
		return s.errf("%s: latency_factor must be >= 1", ctx)
	}
	if e.ErrorRate == 0 && e.LatencyFactor == 0 {
		return s.errf("%s: set error_rate and/or latency_factor", ctx)
	}
	return nil
}

func checkColdStartStorm(s *Spec, ctx string, e *Event) error {
	if e.Duration == 0 {
		e.Duration = Span(30 * time.Second)
	}
	return nil
}

func checkFlipStorage(s *Spec, ctx string, e *Event) error {
	if s.Shards > 1 {
		return s.errf("%s: runtime storage flips are not supported on a sharded cluster", ctx)
	}
	if e.Target != "local" && e.Target != "serverless" {
		return s.errf(`%s: target must be "local" or "serverless" (got %q)`, ctx, e.Target)
	}
	return nil
}

func checkShardFail(s *Spec, ctx string, e *Event) error {
	if e.Shard == nil {
		return s.errf("%s: shard is required", ctx)
	}
	if *e.Shard < 0 || *e.Shard >= s.Shards {
		return s.errf("%s: shard %d out of range [0, %d)", ctx, *e.Shard, s.Shards)
	}
	if e.RecoverAt != 0 {
		if e.RecoverAt <= e.At {
			return s.errf("%s: recover_at %s must be after at %s", ctx, e.RecoverAt, e.At)
		}
		if e.RecoverAt >= s.Duration {
			return s.errf("%s: recover_at %s is past the scenario duration %s and would never fire", ctx, e.RecoverAt, s.Duration)
		}
	}
	return nil
}

func (r *Runner) flashCrowd(e Event) {
	seq := r.crowdSeq
	r.crowdSeq++
	for i := 0; i < e.Count; i++ {
		r.connect(fmt.Sprintf("crowd%d-%d", seq, i), e.Behavior, e.placement())
	}
	r.logf("flash crowd: %d %q players joined at %v", e.Count, e.Behavior, e.placement().resolve(r.sys.Cluster))
}

func (r *Runner) disconnectNewest(e Event) {
	victims := r.sys.Cluster.Players() // join order: the newest are last
	if e.Count < len(victims) {
		victims = victims[len(victims)-e.Count:]
	}
	for _, m := range victims {
		r.disconnect(m)
	}
	r.logf("disconnect: %d players left", len(victims))
}

func (r *Runner) constructStorm(e Event) {
	r.placeConstructs(e.Count, e.Blocks)
	r.logf("construct storm: %d x %d-block constructs activated", e.Count, e.Blocks)
}

// openWindow applies a chaos window now and lifts it after the event's
// duration — unless a window that opened on the same injector slot in the
// meantime has replaced it: the newest wins, and an older window's end
// must not clear it.
func (r *Runner) openWindow(e Event, set func(on bool)) {
	slot := e.slot()
	r.windowGen[slot]++
	gen := r.windowGen[slot]
	set(true)
	r.loop.After(e.Duration.D(), func() {
		if r.windowGen[slot] == gen {
			set(false)
			r.logf("%s window ended", slot)
		}
	})
}

func (r *Runner) faasChaos(e Event) {
	r.openWindow(e, func(on bool) {
		var ch *faas.Chaos
		if on {
			ch = &faas.Chaos{FailureRate: e.FailureRate, LatencyFactor: e.LatencyFactor, ForceCold: e.ForceCold}
		}
		if e.Function != "" {
			r.sys.Platform.SetFunctionChaos(e.Function, ch)
		} else {
			r.sys.Platform.SetChaos(ch)
		}
	})
	r.logf("faas chaos (function %q): failure_rate=%g latency_factor=%g for %s", e.Function, e.FailureRate, e.LatencyFactor, e.Duration)
}

func (r *Runner) storageChaos(e Event) {
	r.openWindow(e, func(on bool) {
		var ch *blob.Chaos
		if on {
			ch = &blob.Chaos{ReadErrorRate: e.ErrorRate, WriteErrorRate: e.ErrorRate, LatencyFactor: e.LatencyFactor}
		}
		// The brownout hits every store the server may be talking to,
		// including the flip's local side.
		r.sys.Remote.SetChaos(ch)
		if r.localAlt != nil {
			r.localAlt.SetChaos(ch)
		}
	})
	r.logf("storage brownout: error_rate=%g latency_factor=%g for %s", e.ErrorRate, e.LatencyFactor, e.Duration)
}

func (r *Runner) coldStartStorm(e Event) {
	end := r.loop.Now() + e.Duration.D()
	var evict func()
	evict = func() {
		n := r.sys.Platform.EvictAllWarm()
		r.logf("cold-start storm: evicted %d warm instances", n)
		if r.loop.Now()+stormEvictPeriod <= end {
			r.loop.After(stormEvictPeriod, evict)
		}
	}
	evict()
}

func (r *Runner) flipStorage(e Event) {
	r.flip.useLocal = e.Target == "local"
	r.logf("storage backend flipped to %s", e.Target)
}

func (r *Runner) shardFail(e Event) {
	shard := *e.Shard
	if r.sys.FailShard(shard) {
		r.logf("shard %d killed: tiles rerouted, players re-admitting (epoch %d)", shard, r.sys.Cluster.Epoch())
	} else {
		r.logf("shard %d kill refused (already dead, or last alive shard)", shard)
	}
	if e.RecoverAt != 0 {
		r.at(e.RecoverAt.D(), func() {
			if r.sys.RecoverShard(shard) {
				r.logf("shard %d recovering: rebuilding over the persisted world", shard)
			}
		})
	}
}
