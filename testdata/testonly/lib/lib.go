// Package lib is the surface walk's fixture: each declaration is one case.
package lib

// TestOnly is called only from lib_test.go: a finding.
func TestOnly() int { return helper() }

// Unreferenced is used by nothing: a finding.
const Unreferenced = 2

// Sink is built by cmd/tool, which writes to it through io.Writer: Write has
// no call site, but the interface reaches it.
type Sink struct{ n int }

func (s *Sink) Write(p []byte) (int, error) {
	s.n += len(p)
	return len(p), nil
}

// BenchOnly is read only by the stand-in benchmark module.
var BenchOnly = 3

// helper is unexported and reached only through TestOnly's test: allowed.
func helper() int { return 1 }
