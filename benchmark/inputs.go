package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Workload names, in the order -workload all runs them.
var workloadNames = []string{"town", "explore", "revisit", "cluster", "rt-loopback"}

// sizing is one workload's fixed input size. A unit of a run simulates
// exactly this much, so a faster program finishes a unit sooner instead
// of being handed more work, and two commits are compared over the same
// work (the work fingerprint checks that they were).
type sizing struct {
	Players    int `json:"players"`
	Constructs int `json:"constructs"`
	Probes     int `json:"probes"`
	// Warm and Window are virtual durations on the four virtual-clock
	// workloads and wall durations on rt-loopback.
	Warm   time.Duration `json:"warm_ns"`
	Window time.Duration `json:"window_ns"`
	// Populations is how many populations the seed generates. A run's
	// units take them in turn, so a run measures several draws of the
	// workload rather than one draw several times.
	Populations int `json:"populations"`
}

// sizes holds the sizing numbers fixed on the builder's 2-core machine (see
// README.md): each virtual window is about a wall second there, long
// enough for 400 slices on the slowest workload and short enough that a
// run holds ten or more units. rt-loopback warms up for this long after its
// server has booted and streamed its terrain (see rtUnit).
//
// Two workloads draw more than one population. On cluster, who stands
// where decides when the handoff storms and flush bursts fall and whether
// they fall on the same slice, and a window of 400 slices holds a few dozen
// of them: one population's slice-time tail differed from another's by
// half (p95 7.3 to 11.2 ms over ten seeds, each repeating to a few
// percent), more than any regression the tail is there to catch; six
// populations a run bring a run's pooled tail to within a few percent of
// another seed's. On rt-loopback the seed sets where in the 50 ms tick the
// probes' sends fall, which moved the median latency of a run by a fifth
// (68 to 85 ms); each of its three units takes its own draw. The other
// workloads' numbers do not move with the seed beyond the machine's noise.
var sizes = map[string]sizing{
	"town":        {Players: 200, Constructs: 100, Warm: 20 * time.Second, Window: 250 * time.Second, Populations: 1},
	"explore":     {Players: 16, Warm: 10 * time.Second, Window: 30 * time.Second, Populations: 1},
	"revisit":     {Players: 16, Warm: 10 * time.Second, Window: 30 * time.Second, Populations: 1},
	"cluster":     {Players: 300, Warm: 3 * time.Second, Window: 20 * time.Second, Populations: 6},
	"rt-loopback": {Players: 40, Probes: 2, Warm: 500 * time.Millisecond, Window: 5 * time.Second, Populations: 3},
}

// scaled shrinks a sizing for the smoke test (0 leaves it as it is):
// durations scale linearly, populations scale but keep enough members to
// exercise every path.
func (z sizing) scaled(f float64) sizing {
	if f == 0 {
		return z
	}
	atLeast := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		if m := int(math.Round(float64(n) * f)); m > floor {
			return m
		}
		return floor
	}
	z.Players = atLeast(z.Players, 8)
	z.Constructs = atLeast(z.Constructs, 2)
	z.Warm = time.Duration(float64(z.Warm) * f)
	z.Window = time.Duration(float64(z.Window) * f)
	// Bots decide once a virtual second: two seconds see every one act.
	if min := 2 * time.Second; z.Probes == 0 && z.Window < min {
		z.Window = min
	}
	return z
}

// playerInput is one generated session: who joins, where, doing what.
type playerInput struct {
	Name     string
	Behavior string // a workload.ForName name
	X, Z     int
	// Tether, when positive, keeps the avatar within this many blocks of
	// where it joined (see behaviorFor).
	Tether int
}

// townTether keeps town's avatars on their posts. An avatar that strays
// less than the server's 32-block unload margin never lets a chunk leave
// and re-enter the loaded set, so terrain, codec and storage stay idle and
// the construct layers have the run to themselves.
const townTether = 12

// constructInput is one generated simulated construct.
type constructInput struct {
	Blocks int
	X, Z   int
}

// probeInput is one generated network probe: where it stands, and for
// each action the bearing of its 4-block move and how long it thinks
// before sending it.
type probeInput struct {
	Name     string
	X, Z     int
	Bearings []float64 // radians
	ThinkMs  []float64
}

// inputs is everything a run feeds the program under test. It is a pure
// function of (workload, seed, sizing): the program never sees the seed,
// only what was generated from it.
type inputs struct {
	Workload   string
	Seed       int64
	Size       sizing
	Players    []playerInput
	Constructs []constructInput
	Probes     []probeInput
}

// probeActions bounds the per-probe action script; a probe performs a few
// actions a second, so this outlasts any window the flags allow.
const probeActions = 1024

// worldSeed seeds every assembled system's terrain and clock. The world is
// a fixture: the seed of a run varies who stands where doing what, not the
// ground under them, so runs with different seeds do comparable work.
const worldSeed = 20230718

// generate builds a workload's inputs from the seed through one generator:
// size.Populations populations, drawn one after the other.
func generate(name string, seed int64, size sizing) ([]*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*inputs, size.Populations)
	for i := range ins {
		in, err := generateOne(rng, name, seed, size)
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

func generateOne(rng *rand.Rand, name string, seed int64, size sizing) (*inputs, error) {
	in := &inputs{Workload: name, Seed: seed, Size: size}
	switch name {
	case "town":
		// Two bounded movers per random-mix player around spawn, tethered
		// to their posts, and a fixed grid of 250-block constructs under
		// them.
		in.Players = population(rng, size.Players, []string{"A", "A", "R"}, -100, 100, townTether)
		for i := 0; i < size.Constructs; i++ {
			in.Constructs = append(in.Constructs, constructInput{
				Blocks: 250, X: (i%10)*20 - 100, Z: (i/10)*20 - 100,
			})
		}
	case "explore", "revisit":
		// The same generator calls for both names: revisit replays exactly
		// the rays explore walked (Star assigns bearings by join order).
		in.Players = population(rng, size.Players, []string{"S8"}, -8, 8, 0)
	case "cluster":
		// One period of the 2×2 tile torus (tiles are 128 blocks), so the
		// population straddles every seam.
		in.Players = population(rng, size.Players, []string{"A", "R", "S3"}, 0, 255, 0)
	case "rt-loopback":
		// Tethered, and posted close enough to spawn that no view ever
		// reaches past the terrain the server booted with (16 + 12 blocks
		// out, 64 of view, against 96 booted): a bot that demanded terrain
		// did so in bursts, and in a window of a few wall seconds a burst
		// more or less was most of the CPU time and allocation.
		in.Players = population(rng, size.Players, []string{"R"}, -16, 16, townTether)
		for i := 0; i < size.Probes; i++ {
			p := probeInput{
				Name: fmt.Sprintf("probe%d", i),
				X:    probePost(rng), Z: probePost(rng),
				Bearings: make([]float64, probeActions),
				ThinkMs:  make([]float64, probeActions),
			}
			// Think times are a seeded shuffle of an even cover of
			// [0,100) ms rather than independent draws: the send phase
			// against the 50 ms tick and 100 ms push grids is what sets
			// the latency, and an even cover samples every phase equally
			// in every run.
			const strata = 64
			offset := rng.Float64()
			for base := 0; base < probeActions; base += strata {
				for k, j := range rng.Perm(strata) {
					p.ThinkMs[base+k] = (float64(j) + offset) * 100 / strata
				}
			}
			// Out on a seeded bearing, then back: the probe stays at its
			// post, inside the booted terrain like the bots.
			for k := 0; k < probeActions; k += 2 {
				p.Bearings[k] = rng.Float64() * 2 * math.Pi
				p.Bearings[k+1] = p.Bearings[k] + math.Pi
			}
			in.Probes = append(in.Probes, p)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return in, nil
}

// probePost draws one coordinate of a probe's post: in one of the two
// chunks around spawn, at least probeStep+1 blocks from the chunk's edges,
// so the probe's out-and-back moves never carry its view over a chunk
// boundary (each crossing would stream it nine more chunks, a seed-chosen
// burst of encoding and allocation).
func probePost(rng *rand.Rand) int {
	const chunk = 16
	return chunk*(rng.Intn(2)-1) + 5 + rng.Intn(chunk-10)
}

// population places n players on a grid covering [lo,hi]², each nudged off
// its grid point by up to a quarter of the spacing, and deals the
// behaviours of mix to each run of len(mix) grid neighbours in seeded
// order. The grid and the local deal keep the load alike from seed to seed
// (no seed bunches the walkers on one seam or the block-breakers on one
// construct); the nudges and the order of each deal are what the seed
// varies. The behaviour ratio is exact.
func population(rng *rand.Rand, n int, mix []string, lo, hi, tether int) []playerInput {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	stepX, stepZ := float64(hi-lo)/float64(cols), float64(hi-lo)/float64(rows)
	nudge := func(step float64) float64 { return (rng.Float64() - 0.5) * step / 2 }
	out := make([]playerInput, n)
	var deal []int
	for i := range out {
		if i%len(mix) == 0 {
			deal = rng.Perm(len(mix))
		}
		out[i] = playerInput{
			Name:     fmt.Sprintf("p%03d", i),
			Behavior: mix[deal[i%len(mix)]],
			X:        lo + int(math.Round((float64(i%cols)+0.5)*stepX+nudge(stepX))),
			Z:        lo + int(math.Round((float64(i/cols)+0.5)*stepZ+nudge(stepZ))),
			Tether:   tether,
		}
	}
	return out
}

// inputsHash fingerprints the generated inputs (not the workload's name,
// so explore and revisit, which share their rays, share the hash of them).
func inputsHash(ins []*inputs) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintf(h, "size=%+v\n", in.Size)
		for _, p := range in.Players {
			fmt.Fprintf(h, "P %s %s %d %d %d\n", p.Name, p.Behavior, p.X, p.Z, p.Tether)
		}
		for _, c := range in.Constructs {
			fmt.Fprintf(h, "C %d %d %d\n", c.Blocks, c.X, c.Z)
		}
		for _, p := range in.Probes {
			fmt.Fprintf(h, "N %s %d %d %v %v\n", p.Name, p.X, p.Z, p.Bearings, p.ThinkMs)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
