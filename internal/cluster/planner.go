// Multi-tile migration planning: the scoring leg of the autoscaling
// policy subsystem. The PR 3 controller moves one hot tile at a time;
// scale events need coordinated plans — spread a new shard's share onto
// it, or spread a forming flash crowd before latency degrades — chosen
// by their effect on the *post-move* load map, not just the current
// hottest tile. The planner is pure arithmetic over a tile → rate
// snapshot (no cluster state, no clock), which keeps it deterministic
// and property-testable: PlanBalance never returns a plan that raises
// the maximum per-shard load above what it was before the plan.

package cluster

import (
	"sort"

	"servo/internal/world"
)

// TileRate is one tile's demand in cost units per second, tagged with
// its current owner. The autoscaler derives rates by differencing
// TileLoads snapshots; predictive planning feeds projected rates.
type TileRate struct {
	Tile  world.TileID
	Owner int
	Rate  float64
}

// TileMove is one step of a migration plan.
type TileMove struct {
	Tile world.TileID
	From int
	To   int
}

// PlanBalance greedily builds a multi-tile migration plan over the
// candidate shards: while some shard's summed rate exceeds the mean and
// moving its cheapest movable tile to the least-loaded candidate
// strictly lowers the maximum per-shard load, emit that move. Ties are
// broken by the topology's space-filling index, so the plan is a pure
// function of its inputs. The returned plan never increases the maximum
// per-shard post-move load and never exceeds maxMoves steps.
//
// index maps a tile to its deterministic ordering key (topology Index);
// candidates must be the alive, non-draining shards the plan may route
// load onto (a shard with no tiles yet — a fresh scale-up — is a valid
// candidate and is how a new shard receives its share).
func PlanBalance(rates []TileRate, candidates []int, index func(world.TileID) int, maxMoves int) []TileMove {
	if len(rates) == 0 || len(candidates) < 2 || maxMoves <= 0 {
		return nil
	}
	cand := make(map[int]bool, len(candidates))
	for _, s := range candidates {
		cand[s] = true
	}
	// Per-shard load over every candidate (zero entries matter: an empty
	// new shard is the coldest target), plus each candidate's tiles
	// sorted by rate descending (index ascending on ties) so the
	// heaviest movable tile is considered first.
	load := make(map[int]float64, len(candidates))
	for _, s := range candidates {
		load[s] = 0
	}
	tilesOf := make(map[int][]TileRate)
	for _, r := range rates {
		if !cand[r.Owner] {
			// Tiles on non-candidate shards (draining, quarantined) are
			// invisible to the plan; the drain path moves those.
			continue
		}
		load[r.Owner] += r.Rate
		tilesOf[r.Owner] = append(tilesOf[r.Owner], r)
	}
	for s := range tilesOf {
		ts := tilesOf[s]
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Rate != ts[j].Rate {
				return ts[i].Rate > ts[j].Rate
			}
			return index(ts[i].Tile) < index(ts[j].Tile)
		})
	}
	ordered := append([]int(nil), candidates...)
	sort.Ints(ordered)

	var plan []TileMove
	for len(plan) < maxMoves {
		src, dst := hottest(ordered, load, tilesOf), coldest(ordered, load)
		if src < 0 || dst < 0 || src == dst {
			break
		}
		// Pick the largest tile on src whose move strictly improves the
		// max: moving it must leave dst below src's current load.
		moved := false
		for i, tr := range tilesOf[src] {
			if tr.Rate > 0 && load[dst]+tr.Rate < load[src] {
				plan = append(plan, TileMove{Tile: tr.Tile, From: src, To: dst})
				load[src] -= tr.Rate
				load[dst] += tr.Rate
				tilesOf[src] = append(append([]TileRate(nil), tilesOf[src][:i]...), tilesOf[src][i+1:]...)
				tr.Owner = dst
				// Insert into dst's list keeping the sort order.
				dl := tilesOf[dst]
				at := sort.Search(len(dl), func(k int) bool {
					if dl[k].Rate != tr.Rate {
						return dl[k].Rate < tr.Rate
					}
					return index(dl[k].Tile) > index(tr.Tile)
				})
				dl = append(dl, TileRate{})
				copy(dl[at+1:], dl[at:])
				dl[at] = tr
				tilesOf[dst] = dl
				moved = true
				break
			}
		}
		if !moved {
			break
		}
	}
	return plan
}

// hottest returns the candidate with the highest load that still has a
// movable tile, lowest index on ties; -1 if none.
func hottest(ordered []int, load map[int]float64, tilesOf map[int][]TileRate) int {
	best, bestLoad := -1, 0.0
	for _, s := range ordered {
		if len(tilesOf[s]) == 0 {
			continue
		}
		if best < 0 || load[s] > bestLoad {
			best, bestLoad = s, load[s]
		}
	}
	return best
}

// coldest returns the candidate with the lowest load, lowest index on
// ties; -1 if none.
func coldest(ordered []int, load map[int]float64) int {
	best, bestLoad := -1, 0.0
	for _, s := range ordered {
		if best < 0 || load[s] < bestLoad {
			best, bestLoad = s, load[s]
		}
	}
	return best
}
