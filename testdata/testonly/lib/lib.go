// Package lib is the surface walk's fixture: each declaration is one case.
package lib

import "sync"

// TestOnly is called only from lib_test.go: a finding.
func TestOnly() int { return helper() }

// Unreferenced is used by nothing: a finding.
const Unreferenced = 2

// Sink is built by cmd/tool, which writes to it through io.Writer: Write has
// no call site, but the interface reaches it.
type Sink struct{ buf []byte }

func (s *Sink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// BenchOnly is read only by the stand-in benchmark module.
var BenchOnly = 3

// helper is unexported and reached only through TestOnly's test: allowed.
func helper() int { return 1 }

// Options is what cmd/tool passes to Runner.Run.
type Options struct {
	// Verbose is read by Run and set by nothing: a finding.
	Verbose bool
	// Name is set by encoding/json through its tag: not judged.
	Name string `json:"name"`
}

// Report is printed by cmd/tool with %+v, which reads all its fields.
type Report struct{ Lines int }

// Runner runs Options into a Report.
type Runner struct {
	// Calls is incremented and read by nothing: a finding.
	Calls int
	// last is written and read by nothing: a finding.
	last int
	// mu is only locked: sync types are not judged.
	mu sync.Mutex
	// slow is set only by lib_test.go and read by Run: a test-only switch.
	slow bool
	// total is only summed into itself, by Merge: a finding.
	total int
}

// Merge adds o's total to r's.
func (r *Runner) Merge(o *Runner) { r.total += o.total }

// Run reports the lines Options would print.
func (r *Runner) Run(o Options) Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Calls++
	lines := len(o.Name)
	if o.Verbose || r.slow {
		lines++
	}
	r.last = lines
	return Report{Lines: lines}
}
