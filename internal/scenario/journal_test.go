package scenario

import (
	"slices"
	"testing"

	"servo/internal/cluster"
)

// journalMetrics maps each report metric the journal derives to the kinds
// it counts.
var journalMetrics = map[string][]cluster.Kind{
	"rebalances":          {cluster.Rebalance},
	"tiles_moved":         {cluster.MoveRebalance, cluster.MoveDrain, cluster.MoveScaleUp, cluster.MoveSpread},
	"tiles_drained":       {cluster.MoveDrain},
	"failovers":           {cluster.Failover},
	"players_failed_over": {cluster.FailedOver},
	"scale_ups":           {cluster.ScaleUp},
	"scale_downs":         {cluster.ScaleDown},
	"quarantines":         {cluster.Quarantine},
}

// runJournal runs a bundled scenario and returns its report and the
// retained journal records, checking that the journal evicted nothing.
func runJournal(t *testing.T, name string) (*Report, []cluster.Record) {
	t.Helper()
	spec, err := LoadBundled(name)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Prewrite != nil {
		t.Fatalf("%s has a prewrite phase; the window check below assumes the run starts at 0", name)
	}
	rep, sys, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := sys.Cluster
	recs := cl.Journal.Records()
	total := int64(0)
	for k := cluster.Handoff; k <= cluster.ScaleDown; k++ {
		total += cl.Journal.Count(k)
	}
	if total != int64(len(recs)) {
		t.Fatalf("%s: %d records appended, %d retained: the journal evicted", name, total, len(recs))
	}
	return rep, recs
}

// TestJournalAnswersFromRecords checks two bundled control-plane
// scenarios' journals against their reports: records in time order, the
// report's scale_event rows exactly the journal's scale records, every
// journal-derived metric the count of its kinds' records inside the
// measured window, and the record counts the four separate logs the
// journal replaced held for these runs.
func TestJournalAnswersFromRecords(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		handoffs, migrations, scal int
	}{
		{"daily-cycle", 108, 34, 29},
		{"crash-loop-quarantine", 60, 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, recs := runJournal(t, tc.name)
			spec, _ := LoadBundled(tc.name)
			warm := spec.Warmup.D()
			var scale []cluster.Record
			var handoffs, migrations int
			for i, r := range recs {
				if i > 0 && r.At < recs[i-1].At {
					t.Fatalf("record %d at %v precedes record %d at %v", i, r.At, i-1, recs[i-1].At)
				}
				switch {
				case r.Kind.Scale():
					scale = append(scale, r)
				case r.Kind == cluster.Handoff:
					handoffs++
				case r.Kind >= cluster.MoveRebalance && r.Kind <= cluster.Retire:
					migrations++
				}
			}
			if !slices.Equal(scale, rep.ScaleEvents) {
				t.Fatalf("report scale events %+v, journal scale records %+v", rep.ScaleEvents, scale)
			}
			if handoffs != tc.handoffs || migrations != tc.migrations || len(scale) != tc.scal {
				t.Fatalf("journal holds %d handoffs, %d migrations, %d scale events; want %d, %d, %d",
					handoffs, migrations, len(scale), tc.handoffs, tc.migrations, tc.scal)
			}
			metrics := map[string]float64{}
			for _, m := range rep.Metrics {
				metrics[m.Name] = m.Value
			}
			for name, kinds := range journalMetrics {
				n := 0
				for _, r := range recs {
					if r.At > warm && slices.Contains(kinds, r.Kind) {
						n++
					}
				}
				if v, ok := metrics[name]; !ok || v != float64(n) {
					t.Errorf("metric %s = %v (reported %v), but the journal holds %d records of %v after warm-up", name, v, ok, n, kinds)
				}
			}
		})
	}
}

// TestJournalTracesFirstScaleUp answers "what did shard S do around its
// first scale-up" from the records alone: daily-cycle's first scale-up
// names a new shard S, and tiles then move onto S and sessions hand off
// to it, in that order.
func TestJournalTracesFirstScaleUp(t *testing.T) {
	_, recs := runJournal(t, "daily-cycle")
	up := slices.IndexFunc(recs, func(r cluster.Record) bool { return r.Kind == cluster.ScaleUp })
	if up < 0 {
		t.Fatal("daily-cycle never scaled up")
	}
	s := recs[up].Shard
	move := slices.IndexFunc(recs[up:], func(r cluster.Record) bool {
		return r.Kind >= cluster.MoveRebalance && r.Kind <= cluster.MoveSpread && r.Peer == s
	})
	if move < 0 {
		t.Fatalf("no tile moved onto shard %d after its scale-up at %v", s, recs[up].At)
	}
	move += up
	if slices.IndexFunc(recs[move:], func(r cluster.Record) bool { return r.Kind == cluster.Handoff && r.Peer == s }) < 0 {
		t.Fatalf("no session handed off to shard %d after the move at %v", s, recs[move].At)
	}
}

// TestJournalTracesQuarantine: crash-loop-quarantine's quarantine record
// names the shard whose third failover it precedes, and that shard's
// readmission follows.
func TestJournalTracesQuarantine(t *testing.T) {
	_, recs := runJournal(t, "crash-loop-quarantine")
	q := slices.IndexFunc(recs, func(r cluster.Record) bool { return r.Kind == cluster.Quarantine })
	if q < 0 {
		t.Fatal("crash-loop-quarantine never quarantined")
	}
	s := recs[q].Shard
	failovers := 0
	for _, r := range recs[:q+2] {
		if r.Kind == cluster.Failover && r.Shard == s {
			failovers++
		}
	}
	if failovers != 3 || recs[q+1].Kind != cluster.Failover {
		t.Fatalf("quarantine of shard %d is not followed by its third failover (%d failovers, next %v)", s, failovers, recs[q+1].Kind)
	}
	if slices.IndexFunc(recs[q:], func(r cluster.Record) bool { return r.Kind == cluster.Readmit && r.Shard == s }) < 0 {
		t.Fatalf("shard %d quarantined at %v and never readmitted", s, recs[q].At)
	}
}
