package scenario

import (
	"math"
	"strings"
	"testing"

	"servo/internal/faas"
)

// replaySpec is a seeded stress scenario exercising every nondeterminism
// hazard at once: random fleets with churn, chaos windows, a flash crowd,
// and a construct storm.
const replaySpec = `{
  "name": "replay-probe",
  "seed": 99,
  "duration": "60s",
  "warmup": "10s",
  "backend": {"constructs": true, "terrain": true, "storage": true},
  "constructs": [{"count": 10}],
  "stress": {
    "bots": 50,
    "ramp": "10s",
    "behaviors": {"A": 3, "R": 2, "S3": 1},
    "churn": {"mean_session": "15s", "mean_pause": "3s"}
  },
  "events": [
    {"at": "15s", "kind": "flash_crowd", "count": 10},
    {"at": "20s", "kind": "faas_chaos", "duration": "10s", "failure_rate": 0.2, "latency_factor": 2},
    {"at": "25s", "kind": "spawn_constructs", "count": 5},
    {"at": "31s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 0.5, "function": "simulate-construct"},
    {"at": "35s", "kind": "storage_chaos", "duration": "10s", "error_rate": 0.05, "latency_factor": 3},
    {"at": "40s", "kind": "cold_start_storm", "duration": "10s"}
  ],
  "assertions": [
    {"metric": "players_peak", "op": ">=", "value": 40},
    {"metric": "faas_faults", "op": ">", "value": 0},
    {"metric": "storage_faults", "op": ">", "value": 0},
    {"metric": "constructs", "op": ">=", "value": 15}
  ]
}`

// TestDeterministicReplay runs the same seeded stress scenario twice on
// the virtual clock and requires byte-identical reports: identical tick
// statistics, counters, and assertion outcomes.
func TestDeterministicReplay(t *testing.T) {
	render := func() string {
		spec, err := Parse([]byte(replaySpec))
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Fatalf("replay probe failed its assertions:\n%s", rep.Render())
		}
		return rep.Render()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("replay diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestBundledScenariosParse validates every bundled scenario spec.
func TestBundledScenariosParse(t *testing.T) {
	names := Bundled()
	if len(names) < 6 {
		t.Fatalf("want >= 6 bundled scenarios, have %d: %v", len(names), names)
	}
	for _, name := range names {
		if _, err := LoadBundled(name); err != nil {
			t.Errorf("bundled %s: %v", name, err)
		}
	}
}

// TestBundledScenariosPass runs every bundled scenario to completion and
// requires each to pass its assertions (the same gate `servo-sim run all`
// enforces).
func TestBundledScenariosPass(t *testing.T) {
	if testing.Short() {
		t.Skip("bundled scenario sweep skipped in -short mode")
	}
	for _, name := range Bundled() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := LoadBundled(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := Run(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass {
				t.Fatalf("scenario failed:\n%s", rep.Render())
			}
		})
	}
}

// TestFlipStorageScenario checks that runtime store flips keep the server
// loading terrain, and that a storage brownout opened while the local
// side is active still surfaces faults (chaos reaches both stores).
func TestFlipStorageScenario(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "flip-inline",
		"duration": "40s",
		"warmup": "5s",
		"backend": {"storage": true},
		"fleet": [{"count": 4, "behavior": "S3"}],
		"events": [
			{"at": "10s", "kind": "flip_storage", "target": "local"},
			{"at": "12s", "kind": "storage_chaos", "duration": "10s", "error_rate": 0.5},
			{"at": "25s", "kind": "flip_storage", "target": "serverless"}
		],
		"assertions": [
			{"metric": "chunks_applied", "op": ">", "value": 0},
			{"metric": "storage_faults", "op": ">", "value": 0},
			{"metric": "players_final", "op": ">=", "value": 4}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("flip scenario failed:\n%s", rep.Render())
	}
}

// shardedReplaySpec is a compact version of the bundled sharded-stress
// scenario: a 4-shard cluster with spread placement, wanderers crossing
// region bands, and storage-backed handoff.
const shardedReplaySpec = `{
  "name": "sharded-replay-probe",
  "seed": 7,
  "duration": "50s",
  "warmup": "10s",
  "shards": 4,
  "backend": {"storage": true},
  "stress": {
    "bots": 120,
    "ramp": "10s",
    "placement": "spread",
    "behaviors": {"A": 4, "R": 3, "S3": 3}
  },
  "assertions": [
    {"metric": "players_peak", "op": ">=", "value": 120},
    {"metric": "handoffs", "op": ">=", "value": 1},
    {"metric": "shards", "op": ">=", "value": 4},
    {"metric": "load_imbalance", "op": "<", "value": 4},
    {"metric": "shard2_ticks_total", "op": ">", "value": 0}
  ]
}`

// TestShardedDeterministicReplay runs the sharded probe twice and
// requires byte-identical reports: identical per-shard tick statistics,
// handoff counts/latencies, and assertion outcomes.
func TestShardedDeterministicReplay(t *testing.T) {
	render := func() string {
		spec, err := Parse([]byte(shardedReplaySpec))
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Fatalf("sharded probe failed its assertions:\n%s", rep.Render())
		}
		return rep.Render()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("sharded replay diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// gridReplaySpec is a compact grid-topology probe: a Z-axis crowd lands
// on one grid column (two different row-shards), the controller sheds
// tiles, and the report must replay byte-identically.
const gridReplaySpec = `{
  "name": "grid-replay-probe",
  "seed": 9,
  "duration": "80s",
  "warmup": "10s",
  "shards": 4,
  "topology": {"kind": "grid", "tiles_x": 4, "tiles_z": 4},
  "rebalance": {"threshold": 1.1, "interval": "4s"},
  "fleet": [
    {"count": 6, "behavior": "A", "tile": [1, 0]},
    {"count": 6, "behavior": "A", "tile": [1, 1]},
    {"count": 6, "behavior": "A", "tile": [1, 2]},
    {"count": 6, "behavior": "A", "tile": [1, 3]}
  ],
  "events": [
    {"at": "20s", "kind": "flash_crowd", "count": 18, "behavior": "A", "tile": [0, 0]},
    {"at": "20s", "kind": "flash_crowd", "count": 18, "behavior": "A", "tile": [0, 1]}
  ],
  "assertions": [
    {"metric": "players_final", "op": ">=", "value": 60},
    {"metric": "tiles_moved", "op": ">=", "value": 1},
    {"metric": "handoffs", "op": ">=", "value": 1}
  ]
}`

// TestGridScenarioDeterministicReplay drives the 2-D tile topology
// through the engine twice: the Z-separated crowd must trigger tile
// migrations (a band topology would fuse the column into one band) and
// the reports must match byte for byte.
func TestGridScenarioDeterministicReplay(t *testing.T) {
	render := func() string {
		spec, err := Parse([]byte(gridReplaySpec))
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Fatalf("grid probe failed its assertions:\n%s", rep.Render())
		}
		return rep.Render()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("grid replay diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestPerFunctionChaosScenario fails only the construct function for a
// window: construct invocations take faults while the terrain pipeline
// stays fault-free.
func TestPerFunctionChaosScenario(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "function-chaos-inline",
		"duration": "60s",
		"warmup": "5s",
		"backend": {"constructs": true, "terrain": true, "spec_exec": {"detect_loops": false}},
		"constructs": [{"count": 5}],
		"fleet": [{"count": 4, "behavior": "A"}, {"count": 2, "behavior": "S3"}],
		"events": [
			{"at": "10s", "kind": "faas_chaos", "duration": "30s", "failure_rate": 0.8, "function": "simulate-construct"}
		],
		"assertions": [
			{"metric": "faas_faults", "op": ">", "value": 0},
			{"metric": "tg_failures", "op": "<=", "value": 0},
			{"metric": "tg_invocations", "op": ">", "value": 10}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("per-function chaos scenario failed:\n%s", rep.Render())
	}
}

// TestPrewriteRestartServesFromStorage checks the world-restart hook: the
// measured phase reads the terrain the prewrite phase persisted.
func TestPrewriteRestartServesFromStorage(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "prewrite-inline",
		"duration": "30s",
		"warmup": "5s",
		"backend": {"storage": true},
		"prewrite": {"duration": "30s", "fleet": [{"count": 4, "behavior": "S3"}]},
		"fleet": [{"count": 4, "behavior": "S3"}],
		"assertions": [
			{"metric": "storage_reads", "op": ">", "value": 0},
			{"metric": "cache_hits", "op": ">", "value": 0},
			{"metric": "chunks_applied", "op": ">", "value": 0}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("prewrite scenario failed:\n%s", rep.Render())
	}
	// Determinism holds across the phase boundary too.
	spec2, _ := Parse([]byte(`{
		"name": "prewrite-inline",
		"duration": "30s",
		"warmup": "5s",
		"backend": {"storage": true},
		"prewrite": {"duration": "30s", "fleet": [{"count": 4, "behavior": "S3"}]},
		"fleet": [{"count": 4, "behavior": "S3"}],
		"assertions": [
			{"metric": "storage_reads", "op": ">", "value": 0},
			{"metric": "cache_hits", "op": ">", "value": 0},
			{"metric": "chunks_applied", "op": ">", "value": 0}
		]
	}`))
	rep2, _, err := Run(spec2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Render() != rep2.Render() {
		t.Fatalf("prewrite replay diverged:\n--- first ---\n%s--- second ---\n%s", rep.Render(), rep2.Render())
	}
}

// TestWarmupResetsFunctionLatency pins that a deployed function's latency
// sample, like the tick sample, holds the measured window only: the
// invocations issued during warm-up (cold starts, construct activation,
// boot terrain) are counted by the function's meter but are not in its
// latency sample after Run.
func TestWarmupResetsFunctionLatency(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "latency-reset",
		"duration": "30s",
		"warmup": "10s",
		"world": {"type": "default"},
		"backend": {"constructs": true, "terrain": true, "spec_exec": {"detect_loops": false}},
		"constructs": [{"count": 4}],
		"fleet": [{"count": 2, "behavior": "S8"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, sys, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmup := spec.Warmup.D()
	for name, fn := range map[string]*faas.Function{"SCFn": sys.SCFn, "TGFn": sys.TGFn} {
		// The loop runs events at the warm-up instant before the reset, so
		// the warm-up is [0, warmup] inclusive, as the meter counts it.
		inWarmup := int(math.Round(fn.Invocations.RatePerMinute(0, warmup) * warmup.Minutes()))
		if inWarmup == 0 {
			t.Fatalf("%s: no invocations during warm-up; the probe shows nothing", name)
		}
		if got, want := fn.Latency.Len(), fn.Invocations.Count()-inWarmup; got != want || got == 0 {
			t.Errorf("%s: latency sample holds %d invocations, want the %d after warm-up (%d in all)",
				name, got, want, fn.Invocations.Count())
		}
	}
}

// TestWindowedAssertionCountsTicksInWindow pins the window semantics: a
// 10-second window at the 20 Hz tick rate holds ≈200 ticks, far fewer
// than the full run.
func TestWindowedAssertionCountsTicksInWindow(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "window-inline",
		"duration": "60s",
		"warmup": "5s",
		"fleet": [{"count": 2, "behavior": "idle"}],
		"assertions": [
			{"metric": "ticks_total", "op": ">=", "value": 150, "from": "20s", "to": "30s"},
			{"metric": "ticks_total", "op": "<=", "value": 250, "from": "20s", "to": "30s"},
			{"metric": "ticks_total", "op": ">", "value": 1000}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("windowed tick-count scenario failed:\n%s", rep.Render())
	}
}

// runBundledTwice runs a bundled scenario twice and returns both text and
// CSV renderings of each run, requiring both runs to pass.
func runBundledTwice(t *testing.T, name string) (text1, text2, csv1, csv2 string) {
	t.Helper()
	render := func() (string, string) {
		spec, err := LoadBundled(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass {
			t.Fatalf("%s failed its assertions:\n%s", name, rep.Render())
		}
		return rep.Render(), CSVHeader + "\n" + rep.RenderCSVRows()
	}
	text1, csv1 = render()
	text2, csv2 = render()
	return text1, text2, csv1, csv2
}

// TestRebalanceScenarioDeterministicReplay: live rebalancing (controller
// decisions, band flushes, follow-up handoffs) preserves byte-identical
// replay, in both report formats.
func TestRebalanceScenarioDeterministicReplay(t *testing.T) {
	text1, text2, csv1, csv2 := runBundledTwice(t, "rebalance-hotspot")
	if text1 != text2 {
		t.Fatalf("rebalance replay diverged:\n--- first ---\n%s--- second ---\n%s", text1, text2)
	}
	if csv1 != csv2 {
		t.Fatal("rebalance CSV replay diverged")
	}
}

// TestFailoverScenarioDeterministicReplay: the bundled shard-failover
// scenario passes (zero lost players) and replays byte-identically.
func TestFailoverScenarioDeterministicReplay(t *testing.T) {
	text1, text2, csv1, csv2 := runBundledTwice(t, "shard-failover")
	if text1 != text2 {
		t.Fatalf("failover replay diverged:\n--- first ---\n%s--- second ---\n%s", text1, text2)
	}
	if csv1 != csv2 {
		t.Fatal("failover CSV replay diverged")
	}
}

// TestShardFailInlineZeroLoss is the compact failover property check: a
// kill without recovery still loses no players, and the survivors keep
// the whole band space owned.
func TestShardFailInlineZeroLoss(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "shard-fail-inline",
		"duration": "60s",
		"warmup": "10s",
		"shards": 2,
		"backend": {"storage": true},
		"fleet": [
			{"count": 6, "behavior": "A", "shard": 0},
			{"count": 6, "behavior": "A", "shard": 1}
		],
		"events": [
			{"at": "25s", "kind": "shard_fail", "shard": 0}
		],
		"assertions": [
			{"metric": "players_final", "op": ">=", "value": 12},
			{"metric": "failovers", "op": ">=", "value": 1},
			{"metric": "players_failed_over", "op": ">=", "value": 6},
			{"metric": "shard1_players_final", "op": ">=", "value": 12}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("inline shard-fail scenario failed:\n%s", rep.Render())
	}
}

// TestShardSlotNeverCreated: per-shard assertions validate against the
// autoscale ceiling, so a spec may name a slot the autoscaler never
// reaches. Such a slot reports what its rows document for "never
// existed" — -1 for the membership span, 0 for the counts — instead of
// evaluating against a missing row, and stays out of the metric list.
func TestShardSlotNeverCreated(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "slot-never-created",
		"duration": "30s",
		"warmup": "5s",
		"shards": 2,
		"autoscale": {"min_shards": 2, "max_shards": 8},
		"fleet": [{"count": 2, "behavior": "idle"}],
		"assertions": [
			{"metric": "shards", "op": "<=", "value": 2},
			{"metric": "shard1_first_active_ms", "op": ">=", "value": 0},
			{"metric": "shard7_first_active_ms", "op": "<", "value": 0},
			{"metric": "shard7_last_active_ms", "op": "<", "value": 0},
			{"metric": "shard7_ticks_total", "op": "<=", "value": 0},
			{"metric": "shard7_handoffs_in", "op": "<=", "value": 0}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("assertions on a never-created shard slot failed:\n%s", rep.Render())
	}
	for _, m := range rep.Metrics {
		if strings.HasPrefix(m.Name, "shard7_") {
			t.Fatalf("never-created slot rendered as a row: %s", m.Name)
		}
	}
}

// TestRenderCSVStructure pins the CSV emitter's shape: header, a scenario
// row, one row per metric and assertion, and per-tick rows for every
// shard.
func TestRenderCSVStructure(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "csv-inline",
		"duration": "30s",
		"warmup": "5s",
		"shards": 2,
		"fleet": [{"count": 2, "behavior": "idle"}],
		"assertions": [{"metric": "players_final", "op": ">=", "value": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	csv := CSVHeader + "\n" + rep.RenderCSVRows()
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if lines[0] != "kind,shard,name,at_ms,value,ok" {
		t.Fatalf("csv header = %q", lines[0])
	}
	counts := map[string]int{}
	shardsSeen := map[string]bool{}
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 6 {
			t.Fatalf("csv row has %d fields: %q", len(f), l)
		}
		counts[f[0]]++
		if f[0] == "tick" {
			shardsSeen[f[1]] = true
		}
	}
	if counts["scenario"] != 1 {
		t.Fatalf("scenario rows = %d, want 1", counts["scenario"])
	}
	if counts["metric"] != len(rep.Metrics) {
		t.Fatalf("metric rows = %d, want %d", counts["metric"], len(rep.Metrics))
	}
	if counts["assert"] != len(rep.Checks) {
		t.Fatalf("assert rows = %d, want %d", counts["assert"], len(rep.Checks))
	}
	// A 30s run at 20 Hz logs ≈600 ticks per shard.
	if counts["tick"] < 1000 {
		t.Fatalf("tick rows = %d, want >= 1000 across 2 shards", counts["tick"])
	}
	if !shardsSeen["0"] || !shardsSeen["1"] {
		t.Fatalf("tick rows missing a shard: %v", shardsSeen)
	}
}

// TestOneShardReportHasNoControlPlaneRows: every system runs behind a
// cluster, but a spec that does not ask for more than one shard reports
// none of the cluster's control-plane sections — the rows are gated on
// the spec, not on whether a cluster exists.
func TestOneShardReportHasNoControlPlaneRows(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "one-shard-inline",
		"duration": "20s",
		"warmup": "5s",
		"fleet": [{"count": 3, "behavior": "R"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(rep.RenderCSVRows(), "\n") {
		switch kind, _, _ := strings.Cut(l, ","); kind {
		case "tile_load", "scale", "scale_event":
			t.Fatalf("one-shard report carries a control-plane row: %q", l)
		}
	}
}

// TestCrossShardChatScenario: chatty players on a sharded cluster deliver
// to the whole cluster, not one shard — the cluster-wide count must reach
// every player (> per-shard population could ever explain).
func TestCrossShardChatScenario(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "chat-inline",
		"seed": 5,
		"duration": "60s",
		"warmup": "5s",
		"shards": 4,
		"fleet": [
			{"count": 2, "behavior": "R", "shard": 0},
			{"count": 10, "behavior": "idle", "shard": 1},
			{"count": 10, "behavior": "idle", "shard": 2},
			{"count": 10, "behavior": "idle", "shard": 3}
		],
		"assertions": [
			{"metric": "chats_delivered", "op": ">=", "value": 32}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("cross-shard chat scenario failed:\n%s", rep.Render())
	}
}

// TestVisibilityScenarioInline: a two-shard band cluster with fleets
// anchored on the x=128 band seam (pos placement) must replicate ghosts
// both ways, keep the gap counter at zero, and emit per-tile load rows
// in the CSV report.
func TestVisibilityScenarioInline(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "visibility-inline",
		"seed": 9,
		"duration": "60s",
		"warmup": "5s",
		"shards": 2,
		"visibility": {},
		"world": {"view_distance": 64},
		"backend": {"storage": true},
		"fleet": [{"count": 6, "behavior": "A", "pos": [128, 0]}],
		"assertions": [
			{"metric": "ghost_updates", "op": ">", "value": 0},
			{"metric": "ghost_avatars", "op": ">=", "value": 1},
			{"metric": "visibility_gap_ticks", "op": "<=", "value": 0},
			{"metric": "handoffs", "op": ">=", "value": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("visibility scenario failed:\n%s", rep.Render())
	}
	if len(rep.TileLoads) == 0 {
		t.Fatal("sharded report has no tile_load rows")
	}
	var actions int64
	for _, tl := range rep.TileLoads {
		actions += tl.Actions
	}
	if actions == 0 {
		t.Fatal("tile_load rows attribute no actions")
	}
	if !strings.Contains(rep.RenderCSVRows(), "tile_load,") {
		t.Fatal("CSV output missing tile_load rows")
	}
	// The per-tile attribution must account for every processed action.
	var actionsMetric float64
	for _, m := range rep.Metrics {
		if m.Name == "actions" {
			actionsMetric = m.Value
		}
	}
	if float64(actions) < actionsMetric {
		t.Fatalf("tile-attributed actions %d < measured actions %g", actions, actionsMetric)
	}
}
