package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != helper() {
		t.Fatal("TestOnly")
	}
}
