package cluster

// maxLoad returns the maximum per-shard summed rate over the candidates
// (tiles owned by non-candidates excluded): the quantity the planner's
// core property (TestPlanBalanceNeverRaisesMaxLoad) is stated in.
func maxLoad(rates []TileRate, candidates []int) float64 {
	load := make(map[int]float64, len(candidates))
	cand := make(map[int]bool, len(candidates))
	for _, s := range candidates {
		cand[s] = true
		load[s] = 0
	}
	max := 0.0
	for _, r := range rates {
		if cand[r.Owner] {
			load[r.Owner] += r.Rate
		}
	}
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max
}

// applyPlan returns the rates with the plan's moves applied.
func applyPlan(rates []TileRate, plan []TileMove) []TileRate {
	out := append([]TileRate(nil), rates...)
	for _, mv := range plan {
		for i := range out {
			if out[i].Tile == mv.Tile && out[i].Owner == mv.From {
				out[i].Owner = mv.To
			}
		}
	}
	return out
}
