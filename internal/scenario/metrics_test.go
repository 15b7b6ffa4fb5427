package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestMetricTable walks the metric table once and checks what every row
// must satisfy, so a new row is covered by adding it.
func TestMetricTable(t *testing.T) {
	classes := []*class{always, needsSC, needsTG, needsFaaS, needsCache, needsStore, needsCluster, needsVisibility}
	known := func(c *class) bool {
		for _, k := range classes {
			if k == c {
				return true
			}
		}
		return false
	}

	// The specs the class predicates are exercised over: every bundled
	// scenario plus the bare spec the validation tests build on (the one
	// place every optional class is off at once).
	bare, err := Parse([]byte(minimal("")))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{bare}
	for _, name := range Bundled() {
		spec, err := LoadBundled(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
		// Every metric a bundled scenario asserts on is a row.
		for _, a := range spec.Assertions {
			if _, _, ok := findMetric(a.Metric); !ok {
				t.Errorf("bundled %s asserts on %q, which is not in the metric table", name, a.Metric)
			}
		}
	}
	for i, c := range classes {
		var on, off bool
		for _, spec := range specs {
			if c.has(spec) {
				on = true
			} else {
				off = true
			}
		}
		if !on || (!off && c != always) {
			t.Errorf("class %d (requires %q) is not exercised both ways: available %v, unavailable %v", i, c.requires, on, off)
		}
		if c != always && c.requires == "" {
			t.Errorf("class %d has no phrase for validation to print", i)
		}
	}

	// everything is a spec with every class available, so only the window
	// rule can reject a windowed assertion on it.
	const everything = `"shards": 2, "visibility": {},
		"backend": {"constructs": true, "terrain": true, "storage": true}, `
	seen := make(map[string]bool)
	for i := range metricTable {
		m := &metricTable[i]
		if seen[m.name] {
			t.Errorf("metric %q appears twice in the table", m.name)
		}
		seen[m.name] = true
		readers := 0
		for _, set := range []bool{m.read != nil, m.tick != nil, m.shard != nil} {
			if set {
				readers++
			}
		}
		if readers != 1 {
			t.Errorf("metric %q has %d readers, want exactly one", m.name, readers)
		}
		if !known(m.class) {
			t.Errorf("metric %q has an unknown availability class", m.name)
			continue
		}
		if m.window != nil && m.read == nil {
			t.Errorf("metric %q has a window reader but no end-of-run reader", m.name)
		}

		name := m.name
		if m.shard != nil {
			name = fmt.Sprintf(m.name, 0)
		}
		if got, slot, ok := findMetric(name); !ok || got != m || (slot >= 0) != (m.shard != nil) {
			t.Errorf("findMetric(%q) = (%v, %d, %v), want row %d", name, got, slot, ok, i)
		}
		plain := fmt.Sprintf(`"assertions": [{"metric": %q, "op": ">=", "value": 0}]`, name)
		if !m.class.has(bare) {
			_, err := Parse([]byte(minimal(plain)))
			if err == nil || !strings.Contains(err.Error(), "requires "+m.class.requires) {
				t.Errorf("unavailable metric %q: error %v does not say it requires %s", name, err, m.class.requires)
			}
		}
		if _, err := Parse([]byte(minimal(everything + plain))); err != nil {
			t.Errorf("metric %q rejected with every class available: %v", name, err)
		}
		windowed := fmt.Sprintf(`"assertions": [{"metric": %q, "op": ">=", "value": 0, "from": "1s", "to": "2s"}]`, name)
		_, err := Parse([]byte(minimal(everything + windowed)))
		switch {
		case m.windowable() && err != nil:
			t.Errorf("windowable metric %q rejected windowed: %v", name, err)
		case !m.windowable() && (err == nil || !strings.Contains(err.Error(),
			"does not support [from, to] windows (tick metrics, load_imbalance, and view_margin only)")):
			t.Errorf("metric %q windowed: error %v, want the window refusal", name, err)
		}
	}
}
