package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimal returns a parseable scenario body with the given extra
// top-level JSON fields spliced in.
func minimal(extra string) string {
	body := `"name": "t", "duration": "30s"`
	if extra != "" {
		body += ", " + extra
	}
	return "{" + body + "}"
}

func TestParseRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{"missing name", `{"duration": "30s"}`, "name is required"},
		{"missing duration", `{"name": "t"}`, "duration is required"},
		{"negative duration", `{"name": "t", "duration": "-5s"}`, "negative"},
		{"numeric duration", `{"name": "t", "duration": 30}`, `durations must be strings`},
		{"warmup too long", minimal(`"warmup": "30s"`), "warmup 30s must be shorter"},
		{"unknown field", minimal(`"flet": []`), "unknown field"},
		{"bad world type", minimal(`"world": {"type": "spherical"}`), `world.type must be "flat" or "default"`},
		{"bad profile", minimal(`"world": {"profile": "fortnite"}`), "world.profile must be"},
		{"storage tier without storage", minimal(`"backend": {"storage_tier": "premium"}`), "backend.storage is false"},
		{"bad storage tier", minimal(`"backend": {"storage": true, "storage_tier": "glacier"}`), "storage_tier must be"},
		{"storage and local store", minimal(`"backend": {"storage": true, "local_store": true}`), "mutually exclusive"},
		{"spec_exec without constructs", minimal(`"backend": {"spec_exec": {"tick_lead": 5}}`), "backend.constructs is false"},
		{"construct count zero", minimal(`"constructs": [{"count": 0}]`), "count must be positive"},
		{"construct too small", minimal(`"constructs": [{"count": 1, "blocks": 4}]`), "blocks must be >= 12"},
		{"fleet count zero", minimal(`"fleet": [{"count": 0}]`), "count must be positive"},
		{"fleet unknown behavior", minimal(`"fleet": [{"count": 1, "behavior": "Z9"}]`), `unknown behavior "Z9"`},
		{"fleet joins too late", minimal(`"fleet": [{"count": 1, "join_at": "40s"}]`), "past the scenario duration"},
		{"fleet leaves before joining", minimal(`"fleet": [{"count": 1, "join_at": "10s", "leave_at": "5s"}]`), "leave_at 5s must be after join_at"},
		{"fleet leaves past duration", minimal(`"fleet": [{"count": 1, "join_at": "10s", "leave_at": "5m"}]`), "leave_at 5m0s is past the scenario duration"},
		{"stress without bots", minimal(`"stress": {"bots": 0}`), "stress.bots must be positive"},
		{"stress unknown behavior", minimal(`"stress": {"bots": 5, "behaviors": {"XX": 1}}`), `unknown behavior "XX"`},
		{"stress bad weight", minimal(`"stress": {"bots": 5, "behaviors": {"A": -1}}`), "weight must be positive"},
		{"churn without session", minimal(`"stress": {"bots": 5, "churn": {}}`), "mean_session is required"},
		{"unknown event kind", minimal(`"events": [{"at": "1s", "kind": "meteor_strike"}]`), `unknown event kind "meteor_strike"`},
		{"stray field for kind", minimal(`"events": [{"at": "1s", "kind": "disconnect", "count": 5, "behavior": "R"}]`), `field "behavior" does not apply`},
		{"stray chaos knob", minimal(`"backend": {"terrain": true}, "events": [{"at": "1s", "kind": "cold_start_storm", "failure_rate": 0.5}]`), `field "failure_rate" does not apply`},
		{"out of order events", minimal(`"events": [
			{"at": "10s", "kind": "flash_crowd", "count": 1},
			{"at": "5s", "kind": "disconnect", "count": 1}]`), "timestamps must be non-decreasing"},
		{"event past duration", minimal(`"events": [{"at": "10m", "kind": "flash_crowd", "count": 1}]`), "past the scenario duration"},
		{"flash crowd without count", minimal(`"events": [{"at": "1s", "kind": "flash_crowd"}]`), "count must be positive"},
		{"faas chaos without functions", minimal(`"events": [{"at": "1s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 0.5}]`), "requires a serverless function backend"},
		{"faas chaos without knobs", minimal(`"backend": {"constructs": true}, "events": [{"at": "1s", "kind": "faas_chaos", "duration": "5s"}]`), "set failure_rate, latency_factor, and/or force_cold"},
		{"faas chaos bad rate", minimal(`"backend": {"constructs": true}, "events": [{"at": "1s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 1.5}]`), "failure_rate must be in [0, 1]"},
		{"storage chaos without store", minimal(`"events": [{"at": "1s", "kind": "storage_chaos", "duration": "5s", "error_rate": 0.1}]`), "requires a storage backend"},
		{"overlapping chaos windows", minimal(`"backend": {"constructs": true}, "events": [
			{"at": "1s", "kind": "faas_chaos", "duration": "10s", "failure_rate": 0.5},
			{"at": "5s", "kind": "faas_chaos", "duration": "2s", "failure_rate": 0.1}]`), "overlaps the previous faas_chaos window"},
		{"flip without storage", minimal(`"events": [{"at": "1s", "kind": "flip_storage", "target": "local"}]`), "requires backend.storage"},
		{"flip bad target", minimal(`"backend": {"storage": true}, "events": [{"at": "1s", "kind": "flip_storage", "target": "s3"}]`), `target must be "local" or "serverless"`},
		{"unknown metric", minimal(`"assertions": [{"metric": "fps", "op": "<", "value": 1}]`), `unknown metric "fps"`},
		{"metric needs storage", minimal(`"assertions": [{"metric": "cache_hit_rate", "op": ">", "value": 0}]`), "requires backend.storage"},
		{"metric needs constructs", minimal(`"assertions": [{"metric": "spec_efficiency_median", "op": ">", "value": 0}]`), "requires backend.constructs"},
		{"bad op", minimal(`"assertions": [{"metric": "ticks_total", "op": "==", "value": 1}]`), "op must be one of"},
		{"too many shards", minimal(`"shards": 100`), "shards must be in [0, 64]"},
		{"fleet shard without shards", minimal(`"fleet": [{"count": 1, "shard": 1}]`), "shard placement requires shards > 1"},
		{"fleet shard out of range", minimal(`"shards": 2, "fleet": [{"count": 1, "shard": 5}]`), "shard 5 out of range"},
		{"spread without shards", minimal(`"stress": {"bots": 5, "placement": "spread"}`), `"spread" requires shards > 1`},
		{"bad placement", minimal(`"stress": {"bots": 5, "placement": "corners"}`), "placement must be"},
		{"flip on sharded cluster", minimal(`"shards": 2, "backend": {"storage": true}, "events": [{"at": "1s", "kind": "flip_storage", "target": "local"}]`), "not supported on a sharded cluster"},
		{"cluster metric without shards", minimal(`"assertions": [{"metric": "handoffs", "op": ">", "value": 0}]`), "requires shards > 1"},
		{"shard metric without shards", minimal(`"assertions": [{"metric": "shard0_tick_p99_ms", "op": "<", "value": 50}]`), "requires shards > 1"},
		{"shard metric out of range", minimal(`"shards": 2, "assertions": [{"metric": "shard7_ticks_total", "op": ">", "value": 0}]`), "names shard 7 but the scenario reaches at most 2"},
		{"unknown shard metric base", minimal(`"shards": 2, "assertions": [{"metric": "shard0_fps", "op": ">", "value": 0}]`), `unknown metric "shard0_fps"`},
		{"prewrite without store", minimal(`"prewrite": {"duration": "10s", "fleet": [{"count": 1}]}`), "prewrite requires a storage backend"},
		{"prewrite without fleet", minimal(`"backend": {"storage": true}, "prewrite": {"duration": "10s", "fleet": []}`), "prewrite.fleet is required"},
		{"prewrite fleet joins late", minimal(`"backend": {"storage": true}, "prewrite": {"duration": "10s", "fleet": [{"count": 1, "join_at": "20s"}]}`), "past the prewrite duration"},
		{"chaos function unknown", minimal(`"backend": {"constructs": true}, "events": [{"at": "1s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 0.5, "function": "mine-bitcoin"}]`), `unknown function "mine-bitcoin"`},
		{"chaos function needs backend", minimal(`"backend": {"constructs": true}, "events": [{"at": "1s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 0.5, "function": "generate-terrain"}]`), `requires backend.terrain`},
		{"function on wrong kind", minimal(`"backend": {"storage": true}, "events": [{"at": "1s", "kind": "storage_chaos", "duration": "5s", "error_rate": 0.1, "function": "generate-terrain"}]`), `field "function" does not apply`},
		{"window on counter metric", minimal(`"assertions": [{"metric": "actions", "op": ">", "value": 0, "from": "1s", "to": "2s"}]`), "does not support [from, to] windows"},
		{"window from after to", minimal(`"assertions": [{"metric": "tick_p99_ms", "op": "<", "value": 50, "from": "10s", "to": "5s"}]`), "from 10s must be before to 5s"},
		{"window past duration", minimal(`"assertions": [{"metric": "tick_p99_ms", "op": "<", "value": 50, "from": "10s", "to": "5m"}]`), "past the scenario duration"},
		{"window without to", minimal(`"assertions": [{"metric": "tick_p99_ms", "op": "<", "value": 50, "from": "10s"}]`), "window has from but no to"},
		{"rebalance without shards", minimal(`"rebalance": {}`), "rebalance requires shards > 1"},
		{"rebalance bad threshold", minimal(`"shards": 2, "rebalance": {"threshold": 0.5}`), "rebalance.threshold must be >= 1"},
		{"shard fail without shards", minimal(`"events": [{"at": "1s", "kind": "shard_fail", "shard": 0}]`), "requires shards > 1"},
		{"shard fail without shard", minimal(`"shards": 2, "events": [{"at": "1s", "kind": "shard_fail"}]`), "shard is required"},
		{"shard fail out of range", minimal(`"shards": 2, "events": [{"at": "1s", "kind": "shard_fail", "shard": 5}]`), "shard 5 out of range"},
		{"shard fail recover before kill", minimal(`"shards": 2, "events": [{"at": "10s", "kind": "shard_fail", "shard": 0, "recover_at": "5s"}]`), "recover_at 5s must be after at 10s"},
		{"shard fail recover past duration", minimal(`"shards": 2, "events": [{"at": "10s", "kind": "shard_fail", "shard": 0, "recover_at": "10m"}]`), "past the scenario duration"},
		{"recover_at on wrong kind", minimal(`"events": [{"at": "1s", "kind": "disconnect", "count": 1, "recover_at": "5s"}]`), `field "recover_at" does not apply`},
		{"shard on wrong kind", minimal(`"events": [{"at": "1s", "kind": "disconnect", "count": 1, "shard": 0}]`), `field "shard" does not apply`},
		{"tiles metric without shards", minimal(`"assertions": [{"metric": "tiles_moved", "op": ">", "value": 0}]`), "requires shards > 1"},
		{"windowed imbalance without shards", minimal(`"assertions": [{"metric": "load_imbalance", "op": "<", "value": 2, "from": "1s", "to": "2s"}]`), "requires shards > 1"},
		{"topology without shards", minimal(`"topology": {"kind": "grid", "tiles_x": 2, "tiles_z": 2}`), "topology requires shards > 1"},
		{"topology bad kind", minimal(`"shards": 2, "topology": {"kind": "hex"}`), `topology.kind must be "band" or "grid"`},
		{"grid without dimensions", minimal(`"shards": 2, "topology": {"kind": "grid"}`), "grid topology needs tiles_x and tiles_z"},
		{"grid dimensions too large", minimal(`"shards": 2, "topology": {"kind": "grid", "tiles_x": 100, "tiles_z": 2}`), "grid topology needs tiles_x and tiles_z in [1, 64]"},
		{"band with grid dimensions", minimal(`"shards": 2, "topology": {"tiles_x": 2}`), "only apply to the grid kind"},
		{"bad tile chunks", minimal(`"shards": 2, "topology": {"tile_chunks": 100}`), "tile_chunks must be in [0, 64]"},
		{"more shards than tiles", minimal(`"shards": 8, "topology": {"kind": "grid", "tiles_x": 2, "tiles_z": 2}`), "more shards than tiles"},
		{"fleet tile without shards", minimal(`"fleet": [{"count": 1, "tile": [0, 0]}]`), "tile placement requires shards > 1"},
		{"fleet tile and shard", minimal(`"shards": 2, "fleet": [{"count": 1, "shard": 0, "tile": [0, 0]}]`), "mutually exclusive"},
		{"fleet tile off grid", minimal(`"shards": 2, "topology": {"kind": "grid", "tiles_x": 2, "tiles_z": 2}, "fleet": [{"count": 1, "tile": [2, 0]}]`), "outside the 2x2 grid"},
		{"fleet band tile off axis", minimal(`"shards": 2, "fleet": [{"count": 1, "tile": [0, 3]}]`), "band-topology tiles lie on z=0"},
		{"crowd tile off grid", minimal(`"shards": 2, "topology": {"kind": "grid", "tiles_x": 2, "tiles_z": 2}, "events": [{"at": "1s", "kind": "flash_crowd", "count": 1, "tile": [0, 5]}]`), "outside the 2x2 grid"},
		{"tile on wrong kind", minimal(`"events": [{"at": "1s", "kind": "disconnect", "count": 1, "tile": [0, 0]}]`), `field "tile" does not apply`},
		{"windowed view_margin bad window", minimal(`"assertions": [{"metric": "view_margin", "op": ">", "value": 0, "from": "10s", "to": "5s"}]`), "from 10s must be before to 5s"},
		{"visibility without shards", minimal(`"visibility": {}`), "visibility requires shards > 1"},
		{"visibility bad margin", minimal(`"shards": 2, "visibility": {"margin": 5000}`), "visibility.margin must be in [0, 1024]"},
		{"ghost metric without visibility", minimal(`"shards": 2, "assertions": [{"metric": "ghost_updates", "op": ">", "value": 0}]`), "requires a visibility section"},
		{"gap metric without visibility", minimal(`"shards": 2, "assertions": [{"metric": "visibility_gap_ticks", "op": "<=", "value": 0}]`), "requires a visibility section"},
		{"checkpoint without shards", minimal(`"checkpoint": "10s"`), "checkpoint requires shards > 1"},
		{"checkpoint without store", minimal(`"shards": 2, "checkpoint": "10s"`), "checkpoint requires a storage backend"},
		{"fleet pos and tile", minimal(`"shards": 2, "fleet": [{"count": 1, "tile": [0, 0], "pos": [5, 5]}]`), "mutually exclusive"},
		{"fleet pos out of range", minimal(`"fleet": [{"count": 1, "pos": [2000000, 0]}]`), "pos coordinate 2000000 out of range"},
		{"visibility cadence under a tick", minimal(`"shards": 2, "visibility": {"interval": "1ns"}`), "visibility.interval must be at least 50ms (got 1ns)"},
		{"rebalance cadence under a tick", minimal(`"shards": 2, "rebalance": {"interval": "50us"}`), "rebalance.interval must be at least 50ms (got 50µs)"},
		{"autoscale cadence under a tick", minimal(`"shards": 2, "autoscale": {"interval": "49ms"}`), "autoscale.interval must be at least 50ms (got 49ms)"},
		{"checkpoint cadence under a tick", minimal(`"shards": 2, "backend": {"storage": true}, "checkpoint": "1ms"}`), "checkpoint must be at least 50ms (got 1ms)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted invalid spec %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseAppliesDefaults(t *testing.T) {
	spec, err := Parse([]byte(minimal(`
		"fleet": [{"count": 3}],
		"constructs": [{"count": 2}],
		"stress": {"bots": 4, "churn": {"mean_session": "10s"}},
		"events": [
			{"at": "1s", "kind": "flash_crowd", "count": 5},
			{"at": "2s", "kind": "spawn_constructs", "count": 1}
		]`)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Errorf("seed default = %d, want 1", spec.Seed)
	}
	if spec.Warmup.D() != 6*time.Second { // min(10s, 30s/5)
		t.Errorf("warmup default = %s, want 6s", spec.Warmup)
	}
	if spec.World.Type != "flat" || spec.World.Profile != "servo" {
		t.Errorf("world defaults = %+v", spec.World)
	}
	if spec.Fleet[0].Behavior != "A" {
		t.Errorf("fleet behavior default = %q, want A", spec.Fleet[0].Behavior)
	}
	if spec.Constructs[0].Blocks != 250 {
		t.Errorf("construct blocks default = %d, want 250", spec.Constructs[0].Blocks)
	}
	if spec.Stress.Ramp.D() != 30*time.Second/4 {
		t.Errorf("stress ramp default = %s, want duration/4", spec.Stress.Ramp)
	}
	if len(spec.Stress.Behaviors) != 1 || spec.Stress.Behaviors["A"] != 1 {
		t.Errorf("stress behaviors default = %v", spec.Stress.Behaviors)
	}
	if spec.Stress.Churn.MeanPause.D() != 5*time.Second {
		t.Errorf("churn pause default = %s, want 5s", spec.Stress.Churn.MeanPause)
	}
	if spec.Events[0].Behavior != "R" {
		t.Errorf("flash crowd behavior default = %q, want R", spec.Events[0].Behavior)
	}
	if spec.Events[1].Blocks != 250 {
		t.Errorf("spawn blocks default = %d, want 250", spec.Events[1].Blocks)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(minimal("") + ` {"name": "u"}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestStorageTierDefaultsWithStorage(t *testing.T) {
	spec, err := Parse([]byte(minimal(`"backend": {"storage": true}`)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Backend.StorageTier != "premium" {
		t.Errorf("storage tier default = %q, want premium", spec.Backend.StorageTier)
	}
}

func TestColdStartStormDurationDefault(t *testing.T) {
	spec, err := Parse([]byte(minimal(`"backend": {"terrain": true},
		"events": [{"at": "1s", "kind": "cold_start_storm"}]`)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Events[0].Duration.D() != 30*time.Second {
		t.Errorf("storm duration default = %s, want 30s", spec.Events[0].Duration)
	}
}

func TestFunctionTargetedWindowsMayOverlapPlatformWindows(t *testing.T) {
	// A function-level window occupies its own injector slot, so it may
	// overlap a platform-wide window of the same kind.
	_, err := Parse([]byte(minimal(`"backend": {"constructs": true, "terrain": true}, "events": [
		{"at": "1s", "kind": "faas_chaos", "duration": "20s", "failure_rate": 0.5},
		{"at": "5s", "kind": "faas_chaos", "duration": "5s", "failure_rate": 1, "function": "simulate-construct"}
	]`)))
	if err != nil {
		t.Fatalf("overlapping windows with different targets rejected: %v", err)
	}
}

func TestShardedSpecAccepted(t *testing.T) {
	if _, err := Parse([]byte(minimal(`"shards": 3,
		"topology": {"kind": "grid", "tiles_x": 4, "tiles_z": 4},
		"fleet": [{"count": 2, "tile": [3, 2]}],
		"events": [{"at": "1s", "kind": "flash_crowd", "count": 1, "tile": [0, 3]}],
		"assertions": [
			{"metric": "tiles_moved", "op": ">=", "value": 0},
			{"metric": "view_margin", "op": ">", "value": 0, "from": "1s", "to": "10s"}
		]`))); err != nil {
		t.Fatalf("grid topology spec rejected: %v", err)
	}
	spec, err := Parse([]byte(minimal(`"shards": 4,
		"backend": {"storage": true},
		"fleet": [{"count": 2, "shard": 3}],
		"stress": {"bots": 8, "placement": "spread"},
		"assertions": [
			{"metric": "handoffs", "op": ">=", "value": 0},
			{"metric": "shard3_players_final", "op": ">=", "value": 0},
			{"metric": "tick_p50_ms", "op": "<", "value": 100, "from": "5s", "to": "20s"}
		]`)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Shards != 4 || *spec.Fleet[0].Shard != 3 || spec.Stress.Placement != "spread" {
		t.Fatalf("sharded fields lost: %+v", spec)
	}
	if !spec.Assertions[2].Windowed() {
		t.Fatal("windowed assertion not recognised")
	}
}
