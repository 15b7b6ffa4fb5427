package scenario

import (
	"fmt"
	"strings"
)

// RenderCSV renders the report as CSV, covering both the summary metrics
// and the per-tick series — the machine-readable sibling of Render, with
// the same determinism guarantee (two runs of the same spec produce
// byte-identical CSV).
//
// One table, discriminated by the kind column:
//
//	kind=scenario   name=<scenario>          value=<pass|fail>
//	kind=metric     name=<metric>            value=<end-of-run value>
//	kind=assert     name=<metric op bound>   value=<actual>  ok=<pass|fail>
//	kind=tick       shard=<i> at_ms=<t>      value=<tick duration, ms>
//	kind=tile_load  shard=<owner> name=tile_<x>_<z>_{actions,stores}  value=<count>
//	kind=scale      name=shards_active at_ms=<t>  value=<alive shard count>
//	kind=scale_event shard=<i> name=<kind> at_ms=<t>  value=<plan tiles>
//
// None of the emitted fields contain commas or quotes, so the output
// needs no CSV escaping.
func (r *Report) RenderCSV() string {
	return CSVHeader + "\n" + r.RenderCSVRows()
}

// CSVHeader is the column header of RenderCSV / RenderCSVRows output.
const CSVHeader = "kind,shard,name,at_ms,value,ok"

// RenderCSVRows renders the report's CSV rows without the header, so a
// multi-scenario run can emit one parseable table: header once, then
// each report's rows (every report starts with its own `scenario` row).
func (r *Report) RenderCSVRows() string {
	var b strings.Builder
	verdict := "pass"
	if !r.Pass {
		verdict = "fail"
	}
	fmt.Fprintf(&b, "scenario,,%s,,%s,\n", r.Name, verdict)
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "metric,,%s,,%s,\n", m.Name, fmtVal(m.Value))
	}
	for _, c := range r.Checks {
		status := "pass"
		if !c.Ok {
			status = "fail"
		}
		name := fmt.Sprintf("%s %s %s", c.Metric, c.Op, fmtVal(c.Value))
		if c.Windowed() {
			name += fmt.Sprintf(" in [%s %s]", c.From, c.To)
		}
		fmt.Fprintf(&b, "assert,,%s,,%s,%s\n", name, fmtVal(c.Actual), status)
	}
	for _, tl := range r.TileLoads {
		fmt.Fprintf(&b, "tile_load,%d,tile_%d_%d_actions,,%d,\n", tl.Owner, tl.X, tl.Z, tl.Actions)
		fmt.Fprintf(&b, "tile_load,%d,tile_%d_%d_stores,,%d,\n", tl.Owner, tl.X, tl.Z, tl.Stores)
	}
	for _, p := range r.ScaleSeries {
		fmt.Fprintf(&b, "scale,,shards_active,%s,%d,\n", fmtVal(msOf(p.At)), p.Count)
	}
	for _, ev := range r.ScaleEvents {
		fmt.Fprintf(&b, "scale_event,%d,%s,%s,%d,\n", ev.Shard, ev.Kind, fmtVal(msOf(ev.At)), ev.Tiles)
	}
	for _, s := range r.Series {
		for _, p := range s.Ticks {
			fmt.Fprintf(&b, "tick,%d,tick_ms,%s,%s,\n", s.Shard, fmtVal(msOf(p.At)), fmtVal(msOf(p.Dur)))
		}
	}
	return b.String()
}
