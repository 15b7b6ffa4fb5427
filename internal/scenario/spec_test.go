package scenario

import (
	"encoding/json"
	"maps"
	"reflect"
	"slices"
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
		{"storage tier without storage", minimal(`"backend": {"storage_tier": "premium"}`), `unknown field "storage_tier"`},
		{"bad storage tier", minimal(`"backend": {"storage": true, "storage_tier": "glacier"}`), `unknown field "storage_tier"`},
		{"storage and local store", minimal(`"backend": {"storage": true, "local_store": true}`), "mutually exclusive"},
		{"spec_exec without constructs", minimal(`"backend": {"spec_exec": {"detect_loops": false}}`), "backend.constructs is false"},
		{"spec_exec steps zero", minimal(`"backend": {"constructs": true, "spec_exec": {"steps": 0}}`), "steps must be in [1, 4096]"},
		{"spec_exec steps past max", minimal(`"backend": {"constructs": true, "spec_exec": {"steps": 4097}}`), "steps must be in [1, 4096]"},
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
		{"rebalance cadence under a tick", minimal(`"shards": 2, "rebalance": {"interval": "50us"}`), "rebalance.interval must be at least 50ms (got 50µs)"},
		{"checkpoint cadence under a tick", minimal(`"shards": 2, "backend": {"storage": true}, "checkpoint": "1ms"}`), "checkpoint must be at least 50ms (got 1ms)"},
		{"autoscale min above default max", minimal(`"shards": 2, "autoscale": {"min_shards": 5}`), "autoscale: min shards 5 exceeds max shards 4 (twice the boot count)"},
		{"autoscale min above max", minimal(`"shards": 2, "autoscale": {"min_shards": 5, "max_shards": 4}`), "autoscale: min shards 5 exceeds max shards 4"},
		{"autoscale max below boot", minimal(`"shards": 3, "autoscale": {"max_shards": 2}`), "autoscale: max shards 2 is below the boot shard count 3"},
		{"autoscale default max over grid", minimal(`"shards": 2, "topology": {"kind": "grid", "tiles_x": 3, "tiles_z": 1}, "autoscale": {}`), "autoscale: max shards 4 (twice the boot count) over a 3-tile grid"},
		{"autoscale low util at high band", minimal(`"shards": 2, "autoscale": {"low_util": 0.75}`), "autoscale.low_util must be in [0, 0.75) (got 0.75)"},
		// Keys whose value is now a constant are refused like typos.
		{"removed key backend.gen_dedup", minimal(`"backend": {"terrain": true, "gen_dedup": false}`), `unknown field "gen_dedup"`},
		{"removed key log_retention", minimal(`"log_retention": -1`), `unknown field "log_retention"`},
		{"removed key visibility.interval", minimal(`"shards": 2, "visibility": {"interval": "50ms"}`), `unknown field "interval"`},
		{"removed key autoscale.interval", minimal(`"shards": 2, "autoscale": {"interval": "2s"}`), `unknown field "interval"`},
		{"removed key autoscale.high_util", minimal(`"shards": 2, "autoscale": {"high_util": 0.75}`), `unknown field "high_util"`},
		{"removed key autoscale.up_cooldown", minimal(`"shards": 2, "autoscale": {"up_cooldown": "4s"}`), `unknown field "up_cooldown"`},
		{"removed key autoscale.horizon", minimal(`"shards": 2, "autoscale": {"horizon": "4s"}`), `unknown field "horizon"`},
		{"removed key autoscale.max_moves", minimal(`"shards": 2, "autoscale": {"max_moves": 4}`), `unknown field "max_moves"`},
		{"removed key autoscale.max_failures", minimal(`"shards": 2, "autoscale": {"max_failures": 3}`), `unknown field "max_failures"`},
		{"removed key autoscale.failure_window", minimal(`"shards": 2, "autoscale": {"failure_window": "2m"}`), `unknown field "failure_window"`},
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

// unsetKeys lists the spec keys no bundled scenario sets, each with the
// reason it stays in the language. Every other key must have a setter.
var unsetKeys = map[string]string{
	"checkpoint":          "a sedentary player's inventory is lost on failover without it and kept with it (cluster TestCheckpointDisabledLosesInventory, TestCheckpointRestoresInventoryOnFailover)",
	"backend.local_store": "Fig. 13's local-disk baseline (core.Config.LocalStore)",
	"visibility.margin":   "public through servo.Config.Visibility.Margin",
	"fleet.shard":         `the Placement form stress "spread" gives every bot`,
	"events.failure_rate": "faas_chaos workload, exercised by TestDeterministicReplay",
	"events.force_cold":   "faas_chaos workload, exercised by TestDeterministicReplay",
	"events.function":     "faas_chaos workload, exercised by TestDeterministicReplay",
}

// specKeyPaths maps the dotted JSON path of every leaf key of Spec to
// its setting: the key's path under the shallowest appearance of its
// struct type. A struct type used at two paths (fleet and
// prewrite.fleet) is one set of settings, whichever path sets it.
// Slices and pointers are looked through, and embedded structs add their
// keys to the embedding struct.
func specKeyPaths() map[string]string {
	type node struct {
		t               reflect.Type
		prefix, setting string
	}
	first := make(map[reflect.Type]string)
	paths := make(map[string]string)
	for queue := []node{{t: reflect.TypeOf(Spec{})}}; len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		if p, ok := first[n.t]; ok {
			n.setting = p
		} else {
			first[n.t] = n.setting
		}
		for _, f := range reflect.VisibleFields(n.t) {
			if f.Anonymous {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				queue = append(queue, node{ft, n.prefix + name + ".", n.setting + name + "."})
			} else {
				paths[n.prefix+name] = n.setting + name
			}
		}
	}
	return paths
}

// setKeyPaths adds the dotted path of every key the JSON value v
// spells to into.
func setKeyPaths(v any, prefix string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			into[prefix+k] = true
			setKeyPaths(x, prefix+k+".", into)
		}
	case []any:
		for _, x := range v {
			setKeyPaths(x, prefix, into)
		}
	}
}

// TestEverySpecKeyHasASetter: a spec key stays in the language only
// while some bundled scenario sets it, or unsetKeys says why it stays.
// A key whose value every scenario leaves at its default belongs in the
// code as a constant. Keys are paths, not names: interval is three
// settings (rebalance, visibility and autoscale had one each).
func TestEverySpecKeyHasASetter(t *testing.T) {
	paths := specKeyPaths()
	set := make(map[string]bool)
	for _, name := range Bundled() {
		src, err := BundledSource(name)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(src, &v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spelled := make(map[string]bool)
		setKeyPaths(v, "", spelled)
		for path, setting := range paths {
			if spelled[path] {
				set[setting] = true
			}
		}
	}
	settings := make(map[string]bool)
	for _, setting := range paths {
		settings[setting] = true
	}
	for _, setting := range slices.Sorted(maps.Keys(settings)) {
		_, listed := unsetKeys[setting]
		switch {
		case set[setting] && listed:
			t.Errorf("%s is set by a bundled scenario: drop it from unsetKeys", setting)
		case !set[setting] && !listed:
			t.Errorf("no bundled scenario sets %s: make its value a constant, or list why it stays in unsetKeys", setting)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(unsetKeys)) {
		if !settings[key] {
			t.Errorf("unsetKeys lists %s, which is not a spec key", key)
		}
	}
}
