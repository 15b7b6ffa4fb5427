// Package orphan is the surface walk's orphan fixture.
package orphan

// Used is exported and called by init below.
func Used() int { return forgotten2() }

// forgotten is unexported and called only by itself: a finding.
func forgotten() int { return forgotten() + 1 }

// forgotten2 is called by Used.
func forgotten2() int { return 2 }

// stale is named only by its own method's receiver: both are findings.
type stale struct{}

func (stale) tick() {}

// init is never referenced, and never a finding.
func init() { _ = Used() }
