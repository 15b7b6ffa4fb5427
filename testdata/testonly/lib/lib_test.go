package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != helper() {
		t.Fatal("TestOnly")
	}
}

func TestSlowRun(t *testing.T) {
	r := &Runner{slow: true}
	if got := r.Run(Options{}).Lines; got != 1 {
		t.Fatalf("slow run reported %d lines, want 1", got)
	}
}
