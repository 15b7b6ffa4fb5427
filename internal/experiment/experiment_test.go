package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"servo/internal/scenario"
)

// tinyOpt returns the smallest useful experiment scale for shape tests.
func tinyOpt() Options { return Options{Seed: 42, Scale: 0.02} }

func TestSupportedPlayersCriterion(t *testing.T) {
	// Spot-check the paper's key Fig. 7a cells without running the full
	// search: Servo must hold 120 players at 200 SCs where the baselines
	// hold none (main finding MF1).
	opt := tinyOpt()
	if !playersSupported(scRunTicks(Servo, 200, 120, opt)) {
		t.Error("Servo must support 120 players at 200 SCs")
	}
	if playersSupported(scRunTicks(Opencraft, 200, 10, opt)) {
		t.Error("Opencraft must not support 10 players at 200 SCs")
	}
	if playersSupported(scRunTicks(Minecraft, 200, 10, opt)) {
		t.Error("Minecraft must not support 10 players at 200 SCs")
	}
	// Baseline ordering at 0 SCs: Opencraft 200 ≥ Servo 190 > Minecraft.
	if !playersSupported(scRunTicks(Opencraft, 0, 200, opt)) {
		t.Error("Opencraft must support 200 players at 0 SCs")
	}
	if !playersSupported(scRunTicks(Minecraft, 0, 110, opt)) {
		t.Error("Minecraft must support 110 players at 0 SCs")
	}
	if playersSupported(scRunTicks(Minecraft, 0, 150, opt)) {
		t.Error("Minecraft must not support 150 players at 0 SCs")
	}
}

func TestBaselineBimodalServoNot(t *testing.T) {
	// Fig. 7b: baselines simulate SCs every other tick → bimodal; Servo
	// applies speculative state every tick → narrow distribution.
	opt := tinyOpt()
	oc := scRunTicks(Opencraft, 100, 5, opt).Box()
	sv := scRunTicks(Servo, 100, 5, opt).Box()
	if float64(oc.P75) < 2*float64(oc.P25) {
		t.Errorf("Opencraft distribution not bimodal: %+v", oc)
	}
	if float64(sv.P75) > 1.6*float64(sv.P25) {
		t.Errorf("Servo distribution should be unimodal: %+v", sv)
	}
	if sv.P50 >= oc.P75 {
		t.Errorf("Servo median (%v) must sit below Opencraft's SC-tick mode (%v)", sv.P50, oc.P75)
	}
}

func TestFig8LeadHidesLatency(t *testing.T) {
	opt := tinyOpt()
	eff := func(lead int) EffSummary {
		return summarizeEff(runCell(specSpec(lead, 100, opt)).Shards[0].SpecExec.Efficiency)
	}
	e0, e20 := eff(0), eff(20)
	if e0.Median >= 0.99 {
		t.Errorf("lead 0 median efficiency = %v, expected < 1 (local fallback)", e0.Median)
	}
	if e20.Median < 0.999 {
		t.Errorf("lead 20 median efficiency = %v, want 1.0", e20.Median)
	}
	if e20.FracPerfect < 0.9 {
		t.Errorf("lead 20 frac@1.0 = %v, want ≥ 0.9 (paper: ≥ 99.1%%)", e20.FracPerfect)
	}
}

func TestFig9LatencyScalesWithSteps(t *testing.T) {
	r := Fig9(tinyOpt())
	if !(r.Latency[50].Mean < r.Latency[100].Mean && r.Latency[100].Mean < r.Latency[200].Mean) {
		t.Errorf("latency must grow with steps: %v / %v / %v",
			r.Latency[50].Mean, r.Latency[100].Mean, r.Latency[200].Mean)
	}
	// The 200-step invocation must exceed the 20-tick lead (1000 ms),
	// the cause of Fig. 8's efficiency drop.
	if r.Latency[200].Mean < time.Second {
		t.Errorf("200-step mean latency = %v, want > 1s", r.Latency[200].Mean)
	}
	if !(r.PerMinute[50] > r.PerMinute[100] && r.PerMinute[100] > r.PerMinute[200]) {
		t.Error("invocation rate must fall with steps")
	}
	// §IV-C cost anchor: $0.216–$0.244/hour band (±30% tolerance).
	for _, steps := range SimLengths {
		if c := r.DollarsHour[steps]; c < 0.15 || c > 0.32 {
			t.Errorf("steps=%d cost $%.3f/h outside the paper's band", steps, c)
		}
	}
}

func TestFig11MemoryScaling(t *testing.T) {
	r := Fig11(tinyOpt())
	// Latency falls monotonically with memory (Fig. 11a).
	prev := time.Duration(1 << 62)
	for _, mem := range MemoryConfigs {
		if got := r.Latency[mem].Mean; got >= prev {
			t.Errorf("mean latency not decreasing at %d MB: %v ≥ %v", mem, got, prev)
		} else {
			prev = got
		}
	}
	// 10240 MB generates a chunk in under a second; 320 MB takes > 3 s.
	if r.Latency[10240].Mean > time.Second {
		t.Errorf("10240 MB mean = %v, want < 1s", r.Latency[10240].Mean)
	}
	if r.Latency[320].Mean < 3*time.Second {
		t.Errorf("320 MB mean = %v, want > 3s", r.Latency[320].Mean)
	}
	// Cost-efficiency (Fig. 11b): the top configuration is never the most
	// cost-efficient, and 320 MB is worse than 512 MB (the paper's
	// exception).
	if r.CostRatio[10240] >= 1.0 {
		t.Error("10240 MB must not be the most cost-efficient configuration")
	}
	if r.CostRatio[320] >= r.CostRatio[512] {
		t.Errorf("320 MB (%v) must be less cost-efficient than 512 MB (%v)",
			r.CostRatio[320], r.CostRatio[512])
	}
}

func TestFig13CacheCutsTail(t *testing.T) {
	// At small scales the extreme-tail percentiles are seed luck (the
	// paper itself observes cached boot outliers exceeding the uncached
	// maximum), so assert the robust properties of the three curves.
	// Bench scale (not tiny) gives the steady-state reads enough weight
	// against the fixed boot-read population.
	r := Fig13(Options{Seed: 42, Scale: 0.1})
	local := r.Latency[StorageLocal]
	raw := r.Latency[StorageServerless]
	cached := r.Latency[StorageServerlessCache]
	for _, cfg := range StorageConfigs {
		if r.Latency[cfg].Len() == 0 {
			t.Fatalf("%v produced no retrievals", cfg)
		}
	}
	// Raw serverless reads sit in the tens of milliseconds.
	if raw.Percentile(50) < 10*time.Millisecond {
		t.Errorf("serverless median = %v, want ≥ 10ms", raw.Percentile(50))
	}
	// The cache makes the median local-class: far below raw serverless.
	if cached.Percentile(50) >= raw.Percentile(50)/3 {
		t.Errorf("cached median %v not ≪ serverless median %v",
			cached.Percentile(50), raw.Percentile(50))
	}
	// Local storage is strictly the fastest body.
	if local.Percentile(90) >= raw.Percentile(50) {
		t.Errorf("local p90 (%v) must be below serverless median (%v)",
			local.Percentile(90), raw.Percentile(50))
	}
	// Most cached reads hit locally: the p50..p75 body stays local-class.
	if cached.Percentile(75) > 40*time.Millisecond {
		t.Errorf("cached p75 = %v, want local-class body", cached.Percentile(75))
	}
}

func TestFig3TierOrdering(t *testing.T) {
	r := Fig3(tinyOpt())
	for _, data := range []string{"Player", "Terrain"} {
		prem := r.Latency[data][2] // blob.TierPremium
		std := r.Latency[data][3]  // blob.TierStandard
		if prem.P50 >= std.P50 {
			t.Errorf("%s: premium median (%v) must beat standard (%v)", data, prem.P50, std.P50)
		}
	}
	// Terrain objects are larger, hence slower than player data.
	if r.Latency["Terrain"][3].P50 <= r.Latency["Player"][3].P50 {
		t.Error("terrain downloads must be slower than player data on the same tier")
	}
}

func TestSec4GAnchors(t *testing.T) {
	r := Sec4G(tinyOpt())
	// §IV-G: the 252-block construct simulates at several hundred steps/s
	// (paper anchor 488/s at p5) and far above the 20 Hz tick rate.
	if p5 := r.P5Rate[252]; p5 < 300 || p5 > 800 {
		t.Errorf("252-block p5 rate = %v/s, want ≈ 488/s band", p5)
	}
	if r.SpeedupVsTickRate[252] < 10 {
		t.Errorf("252-block speedup = %vx, want ≫ 1x", r.SpeedupVsTickRate[252])
	}
	if r.P5Rate[484] >= r.P5Rate[252] {
		t.Error("the larger construct must simulate slower")
	}
	if r.SpeedupVsTickRate[484] < 2 {
		t.Errorf("484-block speedup = %vx, must still beat the tick rate", r.SpeedupVsTickRate[484])
	}
}

func TestRunByNameRegistry(t *testing.T) {
	var sb strings.Builder
	if err := RunByName("tab1,tab2", tinyOpt(), &sb); err != nil {
		t.Fatalf("RunByName: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Table II") {
		t.Fatalf("missing tables in output:\n%s", out)
	}
	if err := RunByName("nonsense", tinyOpt(), &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Runners()) < 14 {
		t.Fatalf("registry has %d experiments, want ≥ 14 (every table and figure)", len(Runners()))
	}
}

func TestMaxPlayersRefinesBelowTen(t *testing.T) {
	// At 200 SCs the baselines support zero players; the refinement loop
	// below 10 players must terminate and return 0.
	opt := tinyOpt()
	if got := MaxPlayers(Opencraft, 200, opt); got > 5 {
		t.Fatalf("Opencraft at 200 SCs = %d players, want ~0", got)
	}
}

func TestDeterministicExperiments(t *testing.T) {
	opt := tinyOpt()
	a := scRunTicks(Servo, 50, 30, opt)
	b := scRunTicks(Servo, 50, 30, opt)
	if a.Len() != b.Len() || a.Percentile(95) != b.Percentile(95) {
		t.Fatal("same seed produced different experiment results")
	}
	opt2 := opt
	opt2.Seed = 77
	c := scRunTicks(Servo, 50, 30, opt2)
	if a.Len() == c.Len() && a.Percentile(95) == c.Percentile(95) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestPortsAreFigureCells holds the bundled scenario ports to the figure
// cells they are ports of: apart from their name, description and
// assertions, each is the spec the figure's builder runs for that cell.
// fig10-view-margin and fig13-read-phase are not cells. Fig. 10 ramps its
// walkers every window/6 where the "Sinc" behaviour ramps at 200 s, and
// Fig. 13's write phase keeps its writers connected and its flusher
// running where the engine's prewrite stops both.
func TestPortsAreFigureCells(t *testing.T) {
	for _, c := range []struct {
		port string
		cell *scenario.Spec
	}{
		{"fig7-sc-scalability", scSpec(Servo, 100, 150, Options{Seed: 42, Scale: 0.1})},
		{"fig8-latency-hiding", specSpec(20, 100, Options{Seed: 42, Scale: 0.2})},
	} {
		port, err := scenario.LoadBundled(c.port)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.cell.Validate(); err != nil {
			t.Fatalf("%s cell: %v", c.port, err)
		}
		for _, s := range []*scenario.Spec{port, c.cell} {
			s.Name, s.Description, s.Assertions = "", "", nil
		}
		if !reflect.DeepEqual(port, c.cell) {
			t.Errorf("%s is not its figure's cell:\nport %+v\ncell %+v", c.port, *port, *c.cell)
		}
	}
}
