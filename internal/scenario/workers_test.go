// The parallel-execution determinism gate: the lane-batched scheduler's
// contract is that the observable event stream — and therefore every
// rendered report byte — is identical for every worker-pool size.
// This test is the `make workersgate` CI step: it runs the bundled
// sharded scenarios and one test-only sharded construct scenario at
// Workers 0, 1 and 4, and two one-shard scenarios at 0 and 4, and fails
// on any report byte diff (text and CSV renderings both) and on any
// difference between the cluster journals.

package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// workersGateScenarios are the bundled scenarios the gate replays at
// every pool size: the sharded workloads, covering cross-shard handoff,
// visibility replication, and the serverless substrate under
// lane-parallel shard ticks, plus the saturated phase-locked cluster —
// overlong ticks re-snapping to the tick grid must reschedule
// identically whether the wave ran on one worker or four, and the
// elastic scenarios — the autoscaler's scale events, drains, and
// quarantine decisions are part of the replay surface too, and the
// generation storm — batched store loads, bounded generation dispatch,
// pooled decode, and cross-shard dedup adoption must commit in the same
// lane order at any pool size.
var workersGateScenarios = []string{
	"border-patrol", "sharded-stress", "saturated-lockstep",
	"daily-cycle", "crash-loop-quarantine", "gen-storm",
}

// oneShardGateScenarios ride along at 0 and 4: a one-lane loop never
// reaches the pool, but its side effects take the same commit buffers —
// the FaaS submission path under fig7-sc-scalability's constructs, the
// store and observer path under storage-brownout's cached remote store.
var oneShardGateScenarios = []string{"fig7-sc-scalability", "storage-brownout"}

// shardedConstructs is not bundled, so PARITY.sha256 does not pin it: no
// bundled scenario runs constructs on more than one shard. Its constructs
// straddle the X = 0 band seam, so both shard lanes offload to the one
// simulation function, whose handler keeps scratch between invocations —
// which is what clusterrace runs this gate under -race for.
const shardedConstructs = `{
  "name": "sharded-constructs",
  "description": "Two shards each own half of 60 offloaded constructs while 20 players roam; loop detection is off, so invocations flow from both lanes all run long. Every report byte must match at any worker-pool size.",
  "seed": 5,
  "duration": "40s",
  "warmup": "10s",
  "shards": 2,
  "world": {"type": "flat", "profile": "servo"},
  "backend": {"constructs": true, "spec_exec": {"detect_loops": false}},
  "constructs": [{"count": 40, "blocks": 250}],
  "fleet": [{"count": 20, "behavior": "A"}],
  "events": [{"at": "20s", "kind": "spawn_constructs", "count": 20, "blocks": 250}],
  "assertions": [
    {"metric": "constructs", "op": ">=", "value": 60},
    {"metric": "sc_invocations", "op": ">", "value": 200}
  ]
}`

// rendering is one run's replay surface: the report's text + CSV
// renderings and the cluster journal as run -v writes it.
type rendering struct{ report, journal string }

// diff describes the first difference between two renderings, or returns
// "" when they are identical.
func (a rendering) diff(b rendering) string {
	if a.report != b.report {
		return fmt.Sprintf("reports differ:\n--- first ---\n%s--- second ---\n%s", a.report, b.report)
	}
	la, lb := strings.Split(a.journal, "\n"), strings.Split(b.journal, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		if i >= len(la) || i >= len(lb) || la[i] != lb[i] {
			return fmt.Sprintf("journals differ at line %d:\n  %q\n  %q", i+1, la[min(i, len(la)-1)], lb[min(i, len(lb)-1)])
		}
	}
	return ""
}

// renderAtWorkers runs one bundled scenario at the given pool size and
// returns its rendering.
func renderAtWorkers(t *testing.T, name string, workers int) rendering {
	t.Helper()
	src, err := BundledSource(name)
	if err != nil {
		t.Fatalf("loading bundled scenario %q: %v", name, err)
	}
	return renderSourceAtWorkers(t, name, src, workers)
}

// renderSourceAtWorkers is renderAtWorkers for a scenario's source.
func renderSourceAtWorkers(t *testing.T, name string, src []byte, workers int) rendering {
	t.Helper()
	spec, err := Parse(src)
	if err != nil {
		t.Fatalf("parsing %q: %v", name, err)
	}
	spec.Workers = workers
	rep, sys, err := Run(spec, nil)
	if err != nil {
		t.Fatalf("%s at workers=%d: %v", name, workers, err)
	}
	if !rep.Pass {
		t.Fatalf("%s at workers=%d failed its assertions:\n%s", name, workers, rep.Render())
	}
	var j strings.Builder
	sys.Cluster.WriteJournal(&j)
	return rendering{rep.Render() + rep.RenderCSVRows(), j.String()}
}

// TestWorkersByteIdentity is the determinism gate: every report byte and
// every journal line identical at -workers 0, 1 and 4.
func TestWorkersByteIdentity(t *testing.T) {
	gate := func(names []string, sizes ...int) {
		for _, name := range names {
			t.Run(name, func(t *testing.T) {
				base := renderAtWorkers(t, name, sizes[0])
				for _, n := range sizes[1:] {
					if d := base.diff(renderAtWorkers(t, name, n)); d != "" {
						t.Fatalf("%s diverges between workers=%d and workers=%d: %s", name, sizes[0], n, d)
					}
				}
			})
		}
	}
	gate(workersGateScenarios, 0, 1, 4)
	gate(oneShardGateScenarios, 0, 4)
	t.Run("sharded-constructs", func(t *testing.T) {
		base := renderSourceAtWorkers(t, "sharded-constructs", []byte(shardedConstructs), 0)
		for _, n := range []int{1, 4} {
			if d := base.diff(renderSourceAtWorkers(t, "sharded-constructs", []byte(shardedConstructs), n)); d != "" {
				t.Fatalf("sharded-constructs diverges between workers=0 and workers=%d: %s", n, d)
			}
		}
	})
}

// TestShardedConstructsSpanShards: the gate's construct scenario puts
// constructs on both shards, or it would not share the handler across
// lanes.
func TestShardedConstructsSpanShards(t *testing.T) {
	spec, err := Parse([]byte(shardedConstructs))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{spec: spec}
	r.build()
	for i, sh := range r.sys.Shards {
		if n := sh.Server.SCs().Count(); n == 0 {
			t.Errorf("shard %d holds no construct", i)
		}
	}
}
