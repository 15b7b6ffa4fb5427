package cluster

import "testing"

func TestRecordRing(t *testing.T) {
	r := newRecordRing[int](3)
	if r.Len() != 0 || r.Total() != 0 || len(r.All()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 1; i <= 2; i++ {
		r.Append(i)
	}
	if got := r.All(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("under-cap contents = %v, want [1 2]", got)
	}
	for i := 3; i <= 5; i++ {
		r.Append(i)
	}
	if got := r.All(); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("wrapped contents = %v, want [3 4 5]", got)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len/Total = %d/%d, want 3/5", r.Len(), r.Total())
	}
}

// TestLogRetentionBoundsGhostLog: the cluster-level wiring — a tiny
// retention keeps the ghost log bounded while counting every append.
func TestLogRetentionBoundsGhostLog(t *testing.T) {
	r := newRecordRing[GhostRecord](2)
	for i := 0; i < 10; i++ {
		r.Append(GhostRecord{Player: "p", Shard: i % 2, Event: "spawn"})
	}
	if r.Len() != 2 || r.Total() != 10 {
		t.Fatalf("Len/Total = %d/%d, want 2/10", r.Len(), r.Total())
	}
}
