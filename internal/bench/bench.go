// Package bench is the machine-readable performance trajectory: a small
// suite of deterministic-load benchmarks whose headline numbers are
// recorded as a schema'd BENCH_<pr>.json artifact checked in with each
// PR, plus the comparison gate (`servo-bench -diff`, `make benchdiff`)
// that fails CI when a headline metric regresses more than the tolerance
// against the last recorded file.
//
// Two kinds of metric coexist. Wall metrics (ns/op, allocs/op,
// bots-per-wall-second) measure real machine time and vary with
// hardware, so the gate compares them with a generous relative
// tolerance. Virtual metrics (tick p99, handoff p99 in virtual
// milliseconds) come off the simulation clock and are bit-deterministic
// for a given seed — they move only when the simulated system itself
// changes.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Schema identifies the artifact format.
const Schema = "servo-bench/v1"

// DefaultTolerance is the relative regression tolerance of the diff
// gate: a gated metric may drift up to 20% in its worse direction.
const DefaultTolerance = 0.20

// Better directions.
const (
	Lower  = "lower"
	Higher = "higher"
)

// Metric is one recorded headline number.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Better is "lower" or "higher": which direction is an improvement.
	Better string `json:"better"`
	// Gate marks the metric as regression-gated; ungated metrics are
	// recorded context (e.g. what an avatar-prefetch call costs a store
	// that has settled nothing yet).
	Gate  bool    `json:"gate"`
	Value float64 `json:"value"`
}

// File is one recorded benchmark artifact (BENCH_<pr>.json).
type File struct {
	Schema string `json:"schema"`
	// PR numbers the change the artifact was recorded with.
	PR int `json:"pr"`
	// Go is the toolchain that produced the wall metrics.
	Go      string   `json:"go"`
	Metrics []Metric `json:"metrics"`
}

// NewFile returns an empty artifact stamped with the current toolchain.
func NewFile(pr int) File {
	return File{Schema: Schema, PR: pr, Go: runtime.Version()}
}

// Add appends a metric.
func (f *File) Add(name, unit, better string, gate bool, value float64) {
	f.Metrics = append(f.Metrics, Metric{Name: name, Unit: unit, Better: better, Gate: gate, Value: value})
}

// Metric returns the named metric.
func (f *File) Metric(name string) (Metric, bool) {
	for _, m := range f.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Encode renders the artifact as stable, human-diffable JSON.
func (f *File) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Decode parses an artifact and checks its schema.
func Decode(data []byte) (File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("bench: %w", err)
	}
	if f.Schema != Schema {
		return File{}, fmt.Errorf("bench: schema %q, want %q", f.Schema, Schema)
	}
	return f, nil
}

// ReadFile loads an artifact from disk.
func ReadFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	f, err := Decode(data)
	if err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// LatestArtifact returns the checked-in BENCH_<n>.json with the highest
// n under dir, or "" when none exists.
func LatestArtifact(dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	best, bestN := "", -1
	for _, e := range entries {
		name := e.Name()
		var n int
		if _, err := fmt.Sscanf(name, "BENCH_%d.json", &n); err != nil || !strings.HasSuffix(name, ".json") {
			continue
		}
		if n > bestN {
			best, bestN = name, n
		}
	}
	return best
}

// Best merges two runs of the suite, keeping each metric's better value
// (direction-aware). The diff gate retries flapping wall measurements
// through this: a real code regression survives re-measurement, machine
// noise does not. Metrics only one side recorded pass through; a/b's
// ordering and metadata come from a.
func Best(a, b File) File {
	out := a
	out.Metrics = append([]Metric(nil), a.Metrics...)
	for i, m := range out.Metrics {
		bm, ok := b.Metric(m.Name)
		if !ok {
			continue
		}
		if (m.Better == Higher) == (bm.Value > m.Value) && bm.Value != m.Value {
			out.Metrics[i].Value = bm.Value
		}
	}
	for _, bm := range b.Metrics {
		if _, ok := a.Metric(bm.Name); !ok {
			out.Metrics = append(out.Metrics, bm)
		}
	}
	return out
}

// Regression is one gated metric that moved past tolerance in its worse
// direction.
type Regression struct {
	Name     string
	Old, New float64
	// Frac is the relative worsening (0.25 = 25% worse).
	Frac float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %g -> %g (%.1f%% worse)", r.Name, r.Old, r.New, r.Frac*100)
}

// Compare diffs cur against old and returns every gated regression
// beyond tol (relative, direction-aware). Metrics missing from either
// side are skipped: an old artifact predating a metric must not fail the
// gate, and a dropped metric is a review question, not a CI failure.
func Compare(old, cur File, tol float64) []Regression {
	var regs []Regression
	for _, om := range old.Metrics {
		if !om.Gate {
			continue
		}
		nm, ok := cur.Metric(om.Name)
		if !ok {
			continue
		}
		worse := nm.Value - om.Value // lower-better: growth is worse
		if om.Better == Higher {
			worse = om.Value - nm.Value
		}
		if worse <= 0 {
			continue
		}
		frac := worse / om.Value
		if om.Value == 0 {
			// Nothing to scale by: any worsening of a zero baseline (e.g.
			// allocs/op climbing off zero) compares absolutely against tol.
			frac = worse
		}
		if om.Value < 0 {
			frac = -frac
		}
		if frac > tol {
			regs = append(regs, Regression{Name: om.Name, Old: om.Value, New: nm.Value, Frac: frac})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Frac > regs[j].Frac })
	return regs
}
