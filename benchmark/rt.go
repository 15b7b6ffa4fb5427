package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"servo"
	"servo/internal/netproto"
	"servo/internal/rtserve"
)

// The rt-loopback workload: the real-time instance behind a real rtserve
// listener on 127.0.0.1, in this process. Most of the population are
// in-process bots; the probes are raw netproto connections driven in a
// closed loop (the next action is sent only after the previous one's
// effect came back), so the load generator needs one connection and two
// mostly-sleeping goroutines per probe.

const (
	probeStep    = 4.0  // blocks a probe moves per action
	probeSpeed   = 1000 // blocks/s: the move completes inside one tick
	probeTimeout = time.Second
	tickRun      = 20 // state updates a time-per-tick sample spans
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeEvent is one message off the wire, stamped when it was read.
type probeEvent struct {
	msg netproto.Message
	at  time.Time
	err error
}

// countingReader counts the bytes the server sent a probe.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// probe is one closed-loop network client.
type probe struct {
	in    probeInput
	track int
	conn  net.Conn
	id    int64
	bytes atomic.Int64
	// chunksSeen counts chunk payloads from the moment of joining.
	chunksSeen atomic.Int64
	// recording gates every sample: probes run from the settle phase on,
	// but only the window counts.
	recording *atomic.Bool
	epoch     time.Time

	// Results, owned by the run goroutine until it exits. updateAt and
	// updateTick hold the arrival and the server tick of every state update
	// of the window.
	actionMs, pingUs         []float64
	updateAt                 []time.Time
	updateTick               []uint64
	chunks                   int64
	attempted, failed        int64
	bytesAtStart, bytesAtEnd int64
	spans                    []span
}

func dialProbe(addr string, in probeInput, track int, recording *atomic.Bool, epoch time.Time) (*probe, *netproto.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, fmt.Errorf("probe %s: %w", in.Name, err)
	}
	p := &probe{in: in, track: track, conn: conn, recording: recording, epoch: epoch}
	rd := netproto.NewReader(countingReader{conn, &p.bytes})
	if err := netproto.Write(conn, netproto.Message{Type: netproto.MsgJoin, Name: in.Name}); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("probe %s: join: %w", in.Name, err)
	}
	m, err := rd.Next()
	if err != nil || m.Type != netproto.MsgWelcome {
		conn.Close()
		return nil, nil, fmt.Errorf("probe %s: no welcome (got %v, %v)", in.Name, m.Type, err)
	}
	p.id = m.PlayerID
	return p, rd, nil
}

// read pumps messages to the run loop until the connection ends.
func (p *probe) read(rd *netproto.Reader, events chan<- probeEvent) {
	defer close(events)
	for {
		m, err := rd.Next()
		events <- probeEvent{msg: m, at: time.Now(), err: err}
		if err != nil {
			return
		}
	}
}

func (p *probe) span(name string, k int, start, end time.Time) {
	p.spans = append(p.spans, span{
		Name: name, Start: start.Sub(p.epoch), End: end.Sub(p.epoch),
		ID: int64(p.track)<<32 | int64(k), Track: p.track,
	})
}

// run drives the probe until its connection is closed: walk to the seeded
// post, then repeat {think, move 4 blocks on the next seeded bearing, wait
// for the first state update that shows the avatar displaced, ping}.
func (p *probe) run(events <-chan probeEvent, traced bool) {
	var (
		restX, restZ float64
		haveRest     bool
		waiting      bool // an action is in flight
		sentAt       time.Time
		counted      bool // the in-flight action was sent inside the window
		pingAt       time.Time
		pingNonce    uint64
		k            int // next scripted action
	)
	// Whatever ends the loop, keep draining so the reader can always
	// deliver (and then close) on its way out.
	defer func() {
		for range events {
		}
	}()
	think := time.NewTimer(time.Hour)
	think.Stop()
	timeout := time.NewTimer(time.Hour)
	timeout.Stop()
	send := func(x, z float64) bool {
		sentAt = time.Now()
		counted = p.recording.Load()
		if counted {
			p.attempted++
		}
		err := netproto.Write(p.conn, netproto.Message{Type: netproto.MsgMove, DestX: x, DestZ: z, Speed: probeSpeed})
		if err != nil {
			if counted {
				p.failed++
			}
			return false
		}
		waiting = true
		timeout.Reset(probeTimeout)
		return true
	}
	nextThink := func() {
		think.Reset(time.Duration(p.in.ThinkMs[k%len(p.in.ThinkMs)] * float64(time.Millisecond)))
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok || ev.err != nil {
				return
			}
			switch ev.msg.Type {
			case netproto.MsgStateUpdate:
				rec := p.recording.Load()
				if rec {
					p.updateAt = append(p.updateAt, ev.at)
					p.updateTick = append(p.updateTick, ev.msg.Tick)
				}
				var x, z float64
				found := false
				for _, a := range ev.msg.Avatars {
					if a.ID == p.id {
						x, z, found = a.X, a.Z, true
						break
					}
				}
				if !found {
					continue
				}
				switch {
				case !haveRest:
					// First sight of our avatar: walk to the post.
					haveRest, restX, restZ = true, x, z
					if !send(float64(p.in.X), float64(p.in.Z)) {
						return
					}
					if x == float64(p.in.X) && z == float64(p.in.Z) {
						// Already there: nothing will visibly change.
						waiting = false
						timeout.Stop()
						nextThink()
					}
				case waiting && math.Hypot(x-restX, z-restZ) > 1e-3:
					waiting = false
					timeout.Stop()
					if counted {
						p.actionMs = append(p.actionMs, ms(ev.at.Sub(sentAt)))
						if traced {
							p.span("probe.action", k, sentAt, ev.at)
						}
					}
					restX, restZ = x, z
					// The pong comes straight from the session's read
					// loop: it crosses framing and the socket but neither
					// the tick nor the push pacing.
					pingNonce++
					pingAt = time.Now()
					if rec {
						p.attempted++
					}
					if err := netproto.Write(p.conn, netproto.Message{Type: netproto.MsgPing, Nonce: pingNonce}); err != nil {
						if rec {
							p.failed++
						}
						return
					}
					nextThink()
				case !waiting:
					restX, restZ = x, z
				}
			case netproto.MsgPong:
				if ev.msg.Nonce == pingNonce && p.recording.Load() {
					p.pingUs = append(p.pingUs, float64(ev.at.Sub(pingAt).Nanoseconds())/1e3)
					if traced {
						p.span("probe.ping", k+1<<20, pingAt, ev.at)
					}
				}
			case netproto.MsgChunkData:
				p.chunksSeen.Add(1)
				if p.recording.Load() {
					p.chunks++
				}
			}
		case <-think.C:
			b := p.in.Bearings[k%len(p.in.Bearings)]
			k++
			if !send(restX+probeStep*math.Cos(b), restZ+probeStep*math.Sin(b)) {
				return
			}
		case <-timeout.C:
			// No visible effect within the limit: a failed operation.
			// Resume from wherever the avatar is seen next.
			if counted {
				p.failed++
			}
			waiting = false
			nextThink()
		}
	}
}

// rtUnit runs one unit of rt-loopback.
func rtUnit(in *inputs, traced, direct bool) (*unit, error) {
	u := &unit{}
	t0 := time.Now()
	inst := servo.NewInstance(servo.Config{
		Seed: worldSeed, WorldType: "default", ViewDistance: viewDistance,
		Servo: servo.AllServerless(), RealTime: true,
	})
	defer inst.Stop()
	obs := &observed{sys: inst.System()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rt-loopback: listen: %w", err)
	}
	srv := rtserve.NewServer(inst, rtserve.Config{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns when the listener closes
	}()
	defer func() {
		ln.Close()
		srv.Close()
		<-served
	}()

	inst.Locked(func() {
		for _, p := range in.Players {
			inst.Server().ConnectAt(p.Name, behaviorFor(p), float64(p.X), float64(p.Z))
		}
	})
	var recording atomic.Bool
	var wg sync.WaitGroup
	probes := make([]*probe, 0, len(in.Probes))
	closeProbes := func() {
		for _, p := range probes {
			p.conn.Close()
		}
		wg.Wait()
	}
	for i, pin := range in.Probes {
		p, rd, err := dialProbe(ln.Addr().String(), pin, i+1, &recording, t0)
		if err != nil {
			closeProbes()
			return nil, err
		}
		probes = append(probes, p)
		// Buffered past one push (update + chunk payloads) so the reader
		// never waits on the run loop to stamp an arrival.
		events := make(chan probeEvent, 16)
		wg.Add(2)
		go func() { defer wg.Done(); p.read(rd, events) }()
		go func() { defer wg.Done(); p.run(events, traced) }()
	}
	// Settle until the server has its boot terrain (generated through FaaS
	// at modelled latencies, in real time: about two seconds, with
	// stragglers) and has streamed every probe its first view of it, four
	// chunks a push. The window then sees no terrain work at all.
	const firstView = (2*viewDistance/16 + 1) * (2*viewDistance/16 + 1)
	for deadline := time.Now().Add(30 * time.Second); ; {
		settled := false
		inst.Locked(func() {
			tg := obs.sys.TGBackend
			settled = tg.Inflight() == 0 && tg.Queued() == 0 && inst.Server().World().LoadedCount() > 0
		})
		for _, p := range probes {
			settled = settled && p.chunksSeen.Load() >= firstView
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			closeProbes()
			return nil, fmt.Errorf("rt-loopback: the server had not booted and streamed its terrain after 30 s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(in.Size.Warm)
	runtime.GC()
	u.SetupS = time.Since(t0).Seconds()

	var prof bytes.Buffer
	if traced {
		if err := startProfile(&prof); err != nil {
			closeProbes()
			return nil, err
		}
	}
	var before, after map[string]float64
	inst.Locked(func() { before = obs.counters() })
	for _, p := range probes {
		p.bytesAtStart = p.bytes.Load()
	}
	alloc0, cpu0, start := totalAlloc(), cpuTime(), time.Now()
	recording.Store(true)
	time.Sleep(in.Size.Window)
	recording.Store(false)
	wall, cpu, alloc := time.Since(start), cpuTime()-cpu0, totalAlloc()-alloc0
	for _, p := range probes {
		p.bytesAtEnd = p.bytes.Load()
	}
	inst.Locked(func() { after = obs.counters() })
	if traced {
		pprof.StopCPUProfile()
		u.Profile = prof.Bytes()
		stacks, err := parseProfile(u.Profile)
		if err != nil {
			closeProbes()
			return nil, err
		}
		u.LayerNs = attribute(stacks)
	}
	closeProbes()
	u.LiveHeapMB = liveHeapMB()

	u.WallS = wall.Seconds()
	u.CPUMs = float64(cpu.Nanoseconds()) / 1e6
	u.AllocMB = float64(alloc) / (1 << 20)
	u.Counts = make(map[string]float64, len(after)+8)
	for k, v := range after {
		u.Counts[k] = v - before[k]
	}
	// One tick is one 50 ms step of game time, however long it took.
	u.VSec = u.Counts["mve.ticks"] * slice.Seconds()
	u.Counts["rt.probes"] = float64(len(probes))
	for _, p := range probes {
		u.ActionMs = append(u.ActionMs, p.actionMs...)
		for i := 1; i < len(p.updateAt); i++ {
			u.GapMs = append(u.GapMs, ms(p.updateAt[i].Sub(p.updateAt[i-1])))
		}
		// A push every 100 ms carries the tick number of a loop that ticks
		// every 50 ms and a bit: one gap spans one, two or three ticks, so
		// the time per tick is taken over tickRun updates, where the
		// whole-tick rounding is a fortieth (over fewer, when a scaled-down
		// window has no more).
		run := min(tickRun, len(p.updateAt)-1)
		for i := max(run, 1); i < len(p.updateAt); i++ {
			if ticks := p.updateTick[i] - p.updateTick[i-run]; ticks > 0 {
				u.SliceMs = append(u.SliceMs, ms(p.updateAt[i].Sub(p.updateAt[i-run]))/float64(ticks))
			}
		}
		u.PingUs = append(u.PingUs, p.pingUs...)
		u.Attempted += p.attempted
		u.Failed += p.failed
		u.Counts["rt.updates"] += float64(len(p.updateAt))
		u.Counts["rt.chunks"] += float64(p.chunks)
		u.Counts["rt.bytes"] += float64(p.bytesAtEnd - p.bytesAtStart)
		u.Spans = append(u.Spans, p.spans...)
	}
	u.Failed += int64(u.Counts["tgen.failures"] + u.Counts["blob.faults"])
	// The wall clock makes the work differ run to run; the fingerprint
	// only records it.
	u.Work = fingerprint{
		Ticks:         []uint64{uint64(u.Counts["mve.ticks"])},
		Actions:       int64(u.Counts["mve.actions"]),
		ChunksApplied: int64(u.Counts["mve.chunks_applied"]),
		ChunksSent:    int64(u.Counts["mve.chunks_sent"]),
		SCInvocations: int64(u.Counts["specexec.invocations"]),
		TGInvocations: int64(u.Counts["tgen.invocations"]),
		Positions:     "wall-clock",
	}
	if len(u.ActionMs) == 0 || len(u.SliceMs) == 0 || u.VSec == 0 {
		return nil, fmt.Errorf("rt-loopback: window too short to measure (%d actions, %d runs of %d updates, %g ticks)",
			len(u.ActionMs), len(u.SliceMs), tickRun, u.Counts["mve.ticks"])
	}
	if direct {
		inst.Locked(func() {
			u.Direct = obs.directTimings()
			chunks := sampleChunks(obs.servers())
			if len(chunks) > 0 {
				netprotoTimings(u.Direct, len(in.Players)+len(in.Probes), chunks[0])
			}
		})
	}
	return u, nil
}
