package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParityGate: pinning then comparing passes; a pinned hash that is
// not the report's, or a scenario with no line, fails; updating one
// scenario leaves the other lines alone.
func TestParityGate(t *testing.T) {
	file := filepath.Join(t.TempDir(), "parity.sha256")
	if got := run([]string{"parity", "-file", file, "border-patrol"}); got == 0 {
		t.Fatal("comparing against a missing file passed")
	}
	if got := run([]string{"parity", "-update", "-file", file, "border-patrol", "shard-failover"}); got != 0 {
		t.Fatalf("update exited %d", got)
	}
	if got := run([]string{"parity", "-file", file, "border-patrol", "shard-failover"}); got != 0 {
		t.Fatalf("comparing against freshly pinned hashes exited %d", got)
	}
	if got := run([]string{"parity", "-file", file, "rebalance-hotspot"}); got == 0 {
		t.Fatal("a scenario with no pinned hash passed")
	}

	pinned, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(pinned), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, "  shard-failover") {
		t.Fatalf("last line %q is not shard-failover's", last)
	}
	lines[len(lines)-1] = strings.Repeat("0", 64) + "  shard-failover"
	if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"parity", "-file", file, "border-patrol"}); got != 0 {
		t.Fatalf("an untouched scenario exited %d", got)
	}
	if got := run([]string{"parity", "-file", file, "shard-failover"}); got == 0 {
		t.Fatal("a report that does not hash to its pinned line passed")
	}
	if got := run([]string{"parity", "-update", "-file", file, "shard-failover"}); got != 0 {
		t.Fatalf("re-pinning one scenario exited %d", got)
	}
	if repinned, _ := os.ReadFile(file); string(repinned) != string(pinned) {
		t.Fatalf("re-pinning one scenario did not restore the file:\n%s\nwant\n%s", repinned, pinned)
	}
}
