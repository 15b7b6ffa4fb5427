package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func baseFile() File {
	f := NewFile(6)
	f.Add("tick_us", "us", Lower, true, 100)
	f.Add("throughput", "bots/s", Higher, true, 5000)
	f.Add("allocs", "allocs/op", Lower, true, 0)
	f.Add("context_only", "ns", Lower, false, 10)
	return f
}

// TestCompareInjectedRegression: the 20% gate must fail a 25% regression
// in either direction, and ignore ungated metrics entirely.
func TestCompareInjectedRegression(t *testing.T) {
	old := baseFile()

	cur := NewFile(6)
	cur.Add("tick_us", "us", Lower, true, 125) // +25%: lower-better regression
	cur.Add("throughput", "bots/s", Higher, true, 3750)
	cur.Add("allocs", "allocs/op", Lower, true, 1) // off the zero baseline
	cur.Add("context_only", "ns", Lower, false, 1e9)
	regs := Compare(old, cur, DefaultTolerance)
	if len(regs) != 3 {
		t.Fatalf("regressions = %v, want tick_us, throughput, and allocs", regs)
	}
	for _, r := range regs {
		if r.Name == "context_only" {
			t.Fatal("ungated metric flagged as a regression")
		}
	}

	// Within tolerance (and improvements) pass.
	ok := NewFile(6)
	ok.Add("tick_us", "us", Lower, true, 115) // +15%: inside the gate
	ok.Add("throughput", "bots/s", Higher, true, 9000)
	ok.Add("allocs", "allocs/op", Lower, true, 0)
	if regs := Compare(old, ok, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("within-tolerance run flagged: %v", regs)
	}

	// A metric the old artifact never recorded cannot regress.
	grown := ok
	grown.Add("brand_new", "ns", Lower, true, 1e12)
	if regs := Compare(old, grown, DefaultTolerance); len(regs) != 0 {
		t.Fatalf("new metric flagged against an artifact predating it: %v", regs)
	}
}

// TestBestMergesDirectionAware: the diff gate's noise-retry merge keeps
// each metric's better value, so persistent regressions survive and
// one-off machine noise does not.
func TestBestMergesDirectionAware(t *testing.T) {
	a := NewFile(6)
	a.Add("tick_us", "us", Lower, true, 120)
	a.Add("throughput", "bots/s", Higher, true, 4000)
	a.Add("only_a", "ns", Lower, false, 7)
	b := NewFile(6)
	b.Add("tick_us", "us", Lower, true, 100)          // better: kept
	b.Add("throughput", "bots/s", Higher, true, 3000) // worse: dropped
	b.Add("only_b", "ns", Lower, false, 9)
	got := Best(a, b)
	for _, want := range []struct {
		name  string
		value float64
	}{{"tick_us", 100}, {"throughput", 4000}, {"only_a", 7}, {"only_b", 9}} {
		m, ok := got.Metric(want.name)
		if !ok || m.Value != want.value {
			t.Fatalf("Best metric %s = %+v (ok=%v), want value %g", want.name, m, ok, want.value)
		}
	}
	if len(a.Metrics) != 3 {
		t.Fatalf("Best mutated its input: %d metrics", len(a.Metrics))
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := baseFile()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.PR != 6 || len(got.Metrics) != len(f.Metrics) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := Decode([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

func TestLatestArtifact(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_notanumber.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := LatestArtifact(dir); got != "BENCH_10.json" {
		t.Fatalf("latest = %q, want BENCH_10.json", got)
	}
	if got := LatestArtifact(t.TempDir()); got != "" {
		t.Fatalf("latest in empty dir = %q, want empty", got)
	}
}
