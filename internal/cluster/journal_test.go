package cluster

import (
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestRecordRing: the journal is a ring — under its cap it keeps every
// record in order; past it, the newest cap records, oldest first — while
// its totals count every append.
func TestRecordRing(t *testing.T) {
	j := Journal{cap: 3}
	if len(j.Records()) != 0 || j.Count(Handoff) != 0 {
		t.Fatal("fresh journal not empty")
	}
	shards := func() []int {
		var out []int
		for _, r := range j.Records() {
			out = append(out, r.Shard)
		}
		return out
	}
	for i := 1; i <= 2; i++ {
		j.add(Record{Kind: Handoff, Shard: i})
	}
	if got := shards(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("under-cap contents = %v, want [1 2]", got)
	}
	for i := 3; i <= 5; i++ {
		j.add(Record{Kind: Handoff, Shard: i})
	}
	if got := shards(); !slices.Equal(got, []int{3, 4, 5}) {
		t.Fatalf("wrapped contents = %v, want [3 4 5]", got)
	}
	if len(j.buf) != 3 || j.Count(Handoff) != 5 {
		t.Fatalf("Len/Total = %d/%d, want 3/5", len(j.buf), j.Count(Handoff))
	}
}

// TestLogRetentionBoundsGhostLog: a journal of cap 2 keeps the newest two
// ghost records, oldest first, while its totals count every append.
func TestLogRetentionBoundsGhostLog(t *testing.T) {
	j := Journal{cap: 2}
	for i := 0; i < 10; i++ {
		j.add(Record{Kind: []Kind{GhostSpawn, GhostExpire}[i%2], Shard: i})
	}
	got := j.Records()
	want := []Record{{Kind: GhostSpawn, Shard: 8}, {Kind: GhostExpire, Shard: 9}}
	if !slices.Equal(got, want) {
		t.Fatalf("retained %+v, want %+v", got, want)
	}
	if j.Count(GhostSpawn) != 5 || j.Count(GhostExpire) != 5 || j.Count(ghostKinds...) != 10 {
		t.Fatalf("totals %d/%d, want 5/5 past eviction", j.Count(GhostSpawn), j.Count(GhostExpire))
	}
	if j.Count(Handoff) != 0 {
		t.Fatal("a kind never appended counts")
	}
}

// TestRecordStaysSmall: a record holds no pointer and fits 72 bytes, so
// the retained journal costs at most 72 bytes a record.
func TestRecordStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 72 {
		t.Fatalf("Record is %d bytes, want <= 72", n)
	}
}

// TestEveryKindIsNamed: the name table covers every kind with a distinct
// name, so a rendered journal line names its kind unambiguously.
func TestEveryKindIsNamed(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || seen[name] || kinds[k].format == "" {
			t.Fatalf("kind %d: name %q (repeated %v), format %q", k, name, seen[name], kinds[k].format)
		}
		seen[name] = true
	}
}

// ofKinds returns c's retained records of the given kinds, oldest first.
func ofKinds(c *Cluster, ks ...Kind) []Record {
	var out []Record
	for _, r := range c.Journal.Records() {
		if slices.Contains(ks, r.Kind) {
			out = append(out, r)
		}
	}
	return out
}

// ghostKinds are the ghost-registry transitions.
var ghostKinds = []Kind{GhostSpawn, GhostDemote, GhostPromote, GhostExpire, GhostDrop}

// journalText renders c's journal as WriteJournal writes it.
func journalText(c *Cluster) string {
	var b strings.Builder
	c.WriteJournal(&b)
	return b.String()
}

// moveKinds are the tile moves, one kind per reason.
var moveKinds = []Kind{MoveRebalance, MoveDrain, MoveScaleUp, MoveSpread}
