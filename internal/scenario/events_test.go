package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"servo/internal/core"
	"servo/internal/sim"
	"servo/internal/world"
)

// classOn turns each availability class on in a spec, so a table walk can
// build the smallest spec satisfying a row's needs.
var classOn = map[*class]func(*Spec){
	needsSC:      func(s *Spec) { s.Backend.Constructs = true },
	needsTG:      func(s *Spec) { s.Backend.Terrain = true },
	needsFaaS:    func(s *Spec) { s.Backend.Constructs = true },
	needsCache:   func(s *Spec) { s.Backend.Storage = true },
	needsStore:   func(s *Spec) { s.Backend.Storage = true },
	needsCluster: func(s *Spec) { s.Shards = 2 },
}

// TestEventTable walks the event table once and checks what every row
// must satisfy, so a new kind is covered by adding its row and example.
func TestEventTable(t *testing.T) {
	consts := []string{EvFlashCrowd, EvDisconnect, EvSpawnSCs, EvFaasChaos,
		EvStorageChaos, EvColdStartStorm, EvFlipStorage, EvShardFail}
	var kinds []string
	for _, row := range eventTable {
		kinds = append(kinds, row.kind)
	}
	if !slices.Equal(kinds, consts) {
		t.Errorf("table kinds %v, want the Ev* constants %v", kinds, consts)
	}

	// The optional JSON keys of Event, in the order the stray-field check
	// reports them (the order spec authors have seen since the check
	// existed): an event with everything set lists them all.
	fieldKeys := []string{"count", "behavior", "blocks", "tile", "shard", "recover_at", "duration",
		"failure_rate", "error_rate", "latency_factor", "force_cold", "target", "function"}
	one := 1
	full := Event{At: 1, Kind: "k", Count: 1, Behavior: "R", Blocks: 1, Tile: &[2]int{}, Shard: &one, RecoverAt: 1,
		Duration: 1, FailureRate: 1, ErrorRate: 1, LatencyFactor: 1, ForceCold: true, Target: "t", Function: "f"}
	if got := full.setKeys(); !slices.Equal(got, fieldKeys) {
		t.Errorf("setKeys of a fully set event = %v, want %v", got, fieldKeys)
	}
	if n := reflect.TypeOf(full).NumField(); n != len(fieldKeys)+2 {
		t.Errorf("Event has %d fields, want at, kind and the %d optional keys above", n, len(fieldKeys))
	}
	if got := (&Event{At: 1, Kind: "k"}).setKeys(); len(got) != 0 {
		t.Errorf("setKeys of a bare event = %v, want none", got)
	}

	// One valid event per kind, with whatever the spec must turn on for
	// every key the row lists to be acceptable at once, and a value to
	// try each JSON key with.
	zero := 0
	examples := map[string]struct {
		ev Event
		on []*class
	}{
		EvFlashCrowd:     {Event{Count: 1}, []*class{needsCluster}}, // tile placement
		EvDisconnect:     {Event{Count: 1}, nil},
		EvSpawnSCs:       {Event{Count: 1}, nil},
		EvFaasChaos:      {Event{Duration: Span(5 * time.Second), FailureRate: 0.5}, []*class{needsSC}}, // function target
		EvStorageChaos:   {Event{Duration: Span(5 * time.Second), ErrorRate: 0.5}, []*class{needsStore}},
		EvColdStartStorm: {Event{}, []*class{needsFaaS}},
		EvFlipStorage:    {Event{Target: "local"}, []*class{needsCache}},
		EvShardFail:      {Event{Shard: &zero}, []*class{needsCluster}},
	}
	samples := map[string]any{
		"count": 1, "behavior": "R", "blocks": 20, "tile": []int{0, 0}, "shard": 0,
		"recover_at": "10s", "duration": "5s", "failure_rate": 0.5, "error_rate": 0.5,
		"latency_factor": 2, "force_cold": true, "target": "local", "function": "simulate-construct",
	}
	specWith := func(ev Event, on []*class) *Spec {
		ev.At = Span(time.Second)
		s := &Spec{Name: "t", Duration: Span(30 * time.Second), Events: []Event{ev}}
		for _, c := range on {
			classOn[c](s)
		}
		return s
	}

	seen := make(map[string]bool)
	for _, row := range eventTable {
		if seen[row.kind] {
			t.Errorf("kind %q appears twice in the table", row.kind)
		}
		seen[row.kind] = true
		if row.check == nil || row.fire == nil {
			t.Errorf("kind %q: check and fire must both be set", row.kind)
		}
		for _, key := range row.keys {
			if !slices.Contains(fieldKeys, key) {
				t.Errorf("kind %q lists key %q, which is not a JSON key of Event", row.kind, key)
			}
		}
		ex, ok := examples[row.kind]
		if !ok {
			t.Errorf("kind %q has no example event in this test", row.kind)
			continue
		}
		ex.ev.Kind = row.kind
		if err := specWith(ex.ev, ex.on).Validate(); err != nil {
			t.Errorf("kind %q: example rejected: %v", row.kind, err)
			continue
		}

		// Each class the row names, unsatisfied, is what validation asks for.
		for k, c := range row.needs {
			err := specWith(ex.ev, row.needs[:k]).Validate()
			want := fmt.Sprintf("events[0] %s: requires %s", row.kind, c.requires)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("kind %q without %s: error %v, want %q", row.kind, c.requires, err, want)
			}
		}

		// Every key the row lists is accepted; every other key is stray.
		raw, err := json.Marshal(specWith(ex.ev, ex.on))
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range fieldKeys {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			doc["events"].([]any)[0].(map[string]any)[key] = samples[key]
			src, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Parse(src)
			stray := fmt.Sprintf("events[0] %s: field %q does not apply to this event kind", row.kind, key)
			switch listed := slices.Contains(row.keys, key); {
			case listed && err != nil:
				t.Errorf("kind %q: listed key %q rejected: %v", row.kind, key, err)
			case !listed && (err == nil || !strings.Contains(err.Error(), stray)):
				t.Errorf("kind %q: unlisted key %q: error %v, want %q", row.kind, key, err, stray)
			}
		}
	}

	// Every bundled event resolves to a row.
	for _, name := range Bundled() {
		spec, err := LoadBundled(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range spec.Events {
			if row := findEvent(e.Kind); row == nil || row.fire == nil {
				t.Errorf("bundled %s events[%d]: kind %q has no row to fire", name, i, e.Kind)
			}
		}
	}

	_, err := Parse([]byte(minimal(`"events": [{"at": "1s", "kind": "meteor_strike"}]`)))
	if want := fmt.Sprintf("valid kinds: %v", consts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown kind: error %v does not list %q", err, want)
	}
}

// TestPlacement: one placement form means one thing whichever carrier it
// arrives through — fleet group, prewrite fleet, flash crowd, stress
// "spread" — both to validation and to the position it resolves to.
func TestPlacement(t *testing.T) {
	spec, err := Parse([]byte(minimal(`"shards": 4, "backend": {"storage": true},
		"fleet": [{"count": 1, "shard": 1}, {"count": 1, "tile": [2, 0]}, {"count": 1, "pos": [5, -7]}, {"count": 1}],
		"prewrite": {"duration": "10s", "fleet": [{"count": 1, "shard": 1}, {"count": 1, "tile": [2, 0]}, {"count": 1, "pos": [5, -7]}, {"count": 1}]},
		"stress": {"bots": 8, "placement": "spread"},
		"events": [{"at": "1s", "kind": "flash_crowd", "count": 1, "tile": [2, 0]}, {"at": "2s", "kind": "flash_crowd", "count": 1}]`)))
	if err != nil {
		t.Fatal(err)
	}
	cl := core.New(sim.NewLoop(1), core.Config{WorldType: "flat", Shards: spec.Shards}).Cluster
	want := []world.BlockPos{cl.Home(1), cl.TileCenter(world.TileID{X: 2}), {X: 5, Z: -7}, {}}
	if want[0] == want[1] || want[0] == want[3] || want[1] == want[3] {
		t.Fatalf("fixture placements coincide: %v", want)
	}
	for i, at := range want {
		if got := spec.Fleet[i].Placement.resolve(cl); got != at {
			t.Errorf("fleet[%d] resolves to %v, want %v", i, got, at)
		}
		if got := spec.Prewrite.Fleet[i].Placement.resolve(cl); got != at {
			t.Errorf("prewrite.fleet[%d] resolves to %v, want %v", i, got, at)
		}
	}
	if got := spec.Events[0].placement().resolve(cl); got != want[1] {
		t.Errorf("flash crowd at tile [2,0] resolves to %v, want %v", got, want[1])
	}
	if got := spec.Events[1].placement().resolve(cl); got != want[3] {
		t.Errorf("flash crowd without a tile resolves to %v, want spawn", got)
	}
	if got := spec.Stress.placeBot(5, spec.Shards).resolve(cl); got != want[0] { // 5 mod 4 = shard 1
		t.Errorf("spread bot 5 resolves to %v, want shard 1's home %v", got, want[0])
	}
	spawnOnly := StressSpec{Placement: "spawn"}
	if got := spawnOnly.placeBot(5, spec.Shards).resolve(cl); got != want[3] {
		t.Errorf("spawn bot resolves to %v, want spawn", got)
	}
	if got := (Placement{Pos: &[2]int{5, -7}}).resolve(nil); got != want[2] {
		t.Errorf("pos on an unsharded system resolves to %v, want %v", got, want[2])
	}

	// The same fault draws the same message through every carrier that
	// can hold it.
	const grid = `"shards": 2, "topology": {"kind": "grid", "tiles_x": 2, "tiles_z": 2}, `
	carriers := []struct {
		ctx  string
		wrap string // %s = the placement's JSON members
		tile bool   // carries tile only
	}{
		{"fleet[0]", `"fleet": [{"count": 1, %s}]`, false},
		{"prewrite.fleet[0]", `"backend": {"local_store": true}, "prewrite": {"duration": "10s", "fleet": [{"count": 1, %s}]}`, false},
		{"events[0] flash_crowd", `"events": [{"at": "1s", "kind": "flash_crowd", "count": 1, %s}]`, true},
	}
	faults := []struct {
		context, members, msg string
		tile                  bool
	}{
		{"", `"tile": [0, 0]`, "tile placement requires shards > 1", true},
		{grid, `"tile": [2, 0]`, "tile [2,0] outside the 2x2 grid", true},
		{`"shards": 2, `, `"tile": [0, 3]`, "band-topology tiles lie on z=0 (got [0,3])", true},
		{"", `"shard": 1`, "shard placement requires shards > 1", false},
		{`"shards": 2, `, `"shard": 5`, "shard 5 out of range [0, 2)", false},
		{"", `"pos": [2000000, 0]`, "pos coordinate 2000000 out of range [-100000, 100000]", false},
		{`"shards": 2, `, `"shard": 0, "tile": [0, 0]`, "shard, tile, and pos placement are mutually exclusive", false},
		{`"shards": 2, `, `"tile": [0, 0], "pos": [5, 5]`, "shard, tile, and pos placement are mutually exclusive", false},
	}
	for _, c := range carriers {
		for _, f := range faults {
			if c.tile && !f.tile {
				continue
			}
			src := minimal(f.context + fmt.Sprintf(c.wrap, f.members))
			_, err := Parse([]byte(src))
			if want := c.ctx + ": " + f.msg; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want %q", src, err, want)
			}
		}
	}
}

// FuzzParse: arbitrary bytes never panic Parse, and a spec it accepts is
// a fixed point — re-validating changes nothing (Validate is documented
// idempotent) and its re-marshalled form parses to a deep-equal spec.
func FuzzParse(f *testing.F) {
	for _, name := range Bundled() {
		src, err := BundledSource(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		second, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("Validate is not idempotent:\n first  %s\n second %s", first, second)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("re-marshalled spec parses differently:\n was %+v\n now %+v", spec, again)
		}
	})
}
