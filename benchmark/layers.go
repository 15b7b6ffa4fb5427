package main

import (
	"sort"
	"time"

	"servo/internal/cluster"
	"servo/internal/mve"
	"servo/internal/netproto"
	"servo/internal/sc"
	"servo/internal/terrain"
	"servo/internal/world"
)

// Direct-call layer timings: the benchmark calls a layer's public
// functions itself, on data taken from the run that just ended, and times
// them from outside. They run after the window has been measured and
// fingerprinted, so mutating the end-of-window state is harmless.

// chunkSample is how many chunks are drawn from the run's own world.
const chunkSample = 64

// nsPerOp returns the median ns per call of fn over five batches of iters
// calls each.
func nsPerOp(iters int, fn func()) float64 {
	var per [5]float64
	for r := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(per[:])
}

// sampleChunks returns up to chunkSample loaded chunks of the servers'
// worlds, evenly spaced over their sorted positions.
func sampleChunks(servers []*mve.Server) []*world.Chunk {
	var all []*world.Chunk
	for _, srv := range servers {
		pos := srv.World().LoadedChunks()
		sort.Slice(pos, func(i, j int) bool {
			if pos[i].X != pos[j].X {
				return pos[i].X < pos[j].X
			}
			return pos[i].Z < pos[j].Z
		})
		for _, cp := range pos {
			all = append(all, srv.World().Chunk(cp))
		}
	}
	if len(all) <= chunkSample {
		return all
	}
	out := make([]*world.Chunk, chunkSample)
	for i := range out {
		out[i] = all[i*len(all)/chunkSample]
	}
	return out
}

// codecTimings times the chunk codec over chunks of the run's own world,
// so flat and generated terrain are not conflated.
func codecTimings(out map[string]float64, chunks []*world.Chunk) {
	if len(chunks) == 0 {
		return
	}
	n := float64(len(chunks))
	encoded := make([][]byte, len(chunks))
	bytes := 0
	for i, c := range chunks {
		encoded[i] = c.EncodeAppend(nil)
		bytes += len(encoded[i])
	}
	var buf []byte
	out["world.encode_ns_per_chunk"] = nsPerOp(1, func() {
		for _, c := range chunks {
			buf = c.EncodeAppend(buf[:0])
		}
	}) / n
	dec := new(world.Chunk)
	out["world.decode_ns_per_chunk"] = nsPerOp(1, func() {
		for _, e := range encoded {
			if err := world.DecodeChunkInto(dec, e); err != nil {
				panic(err) // the bytes were encoded two statements ago
			}
		}
	}) / n
	out["world.encoded_bytes_per_chunk"] = float64(bytes) / n
}

// directTimings times the layers the assembled system exercises.
func (r *observed) directTimings() map[string]float64 {
	out := make(map[string]float64)
	servers := r.servers()
	cfg := r.sys.Server.Config()

	// The demand scan hands its batch to the store and the pre-fetch
	// observer before it returns; the decorator timed those, so they are
	// subtracted to leave the scan's own cost.
	players := 0
	for _, srv := range servers {
		players += srv.PlayerCount()
	}
	if players > 0 {
		const scans = 20
		inStore := r.store.LoadNs + r.store.ObserveNs
		start := time.Now()
		for i := 0; i < scans; i++ {
			for _, srv := range servers {
				srv.ScanTerrainDemand()
			}
		}
		own := time.Since(start).Nanoseconds() - (r.store.LoadNs + r.store.ObserveNs - inStore)
		out["mve.scan_demand_ns_per_player"] = float64(own) / scans / float64(players)
	}

	if r.sys.SCFn != nil {
		c := sc.BuildSized(250)
		out["sc.step_ns_250blk"] = nsPerOp(200, func() { c.Step() })
	}

	chunks := sampleChunks(servers)
	codecTimings(out, chunks)
	if r.sys.TGFn != nil && len(chunks) > 0 {
		gen := terrain.ForWorldType(cfg.WorldType, cfg.Seed)
		out["terrain.generate_ns_per_chunk"] = nsPerOp(1, func() {
			for _, c := range chunks {
				gen.Generate(c.Pos)
			}
		}) / float64(len(chunks))
	}

	if cl := r.sys.Cluster; cl != nil {
		out["cluster.visibility_scan_ns"] = nsPerOp(10, cl.VisibilityScanOnce)
		var entries []cluster.DigestEntry
		for _, h := range cl.Players() {
			if p := cl.Session(h); p != nil {
				entries = append(entries, cluster.DigestEntry{Name: p.Name, X: p.X, Z: p.Z, Home: h.Shard()})
			}
		}
		if len(entries) > 0 {
			out["cluster.digest_encode_ns_per_entry"] = nsPerOp(20, func() {
				if _, err := cluster.EncodeGhostDigest(entries); err != nil {
					panic(err) // entries are live sessions: names and homes are in range
				}
			}) / float64(len(entries))
		}
	}
	return out
}

// netprotoTimings times the wire codec at the run's own avatar count and
// on a chunk of the run's own world.
func netprotoTimings(out map[string]float64, avatars int, chunk *world.Chunk) {
	update := netproto.Message{Type: netproto.MsgStateUpdate, Tick: 12345}
	for i := 0; i < avatars; i++ {
		update.Avatars = append(update.Avatars, netproto.AvatarState{ID: int64(i + 1), X: float64(i) * 1.5, Z: -float64(i)})
	}
	frame := netproto.Encode(update)
	body := frame[4:] // Decode takes the frame without its length prefix
	roundTrip := func() {
		if _, err := netproto.Decode(netproto.Encode(update)[4:]); err != nil {
			panic(err)
		}
	}
	out["netproto.encode_state_ns"] = nsPerOp(500, func() { netproto.Encode(update) })
	out["netproto.decode_state_ns"] = nsPerOp(500, func() {
		if _, err := netproto.Decode(body); err != nil {
			panic(err) // body was encoded above
		}
	})
	out["netproto.allocs_per_msg"] = mallocsPerOp(500, roundTrip) / 2
	if chunk != nil {
		msg := netproto.Message{Type: netproto.MsgChunkData, ChunkData: chunk.EncodeAppend(nil)}
		out["netproto.encode_chunk_ns"] = nsPerOp(200, func() { netproto.Encode(msg) })
	}
}
