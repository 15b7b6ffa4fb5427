package mve

import (
	"math/rand"
	"testing"
	"time"

	"servo/internal/sim"
	"servo/internal/world"
)

// slackClock is a wall-clock stand-in: a timer's callback runs slack after
// its deadline (plus a one-off stall, when set), and Now keeps the
// lateness, as sim.RealClock's does.
type slackClock struct {
	now    sim.Time
	slack  time.Duration
	stall  time.Duration // added to the next callback's lateness, once
	rng    *rand.Rand
	due    sim.Time // the pending timer's deadline
	fn     func()
	delays []time.Duration // every After argument, in order
	ranAt  []sim.Time      // Now at every callback, in order
}

func (c *slackClock) Now() sim.Time   { return c.now }
func (c *slackClock) RNG() *rand.Rand { return c.rng }
func (c *slackClock) After(d time.Duration, fn func()) {
	c.delays = append(c.delays, d)
	c.due, c.fn = c.now+d, fn
}

// fire runs the pending timer.
func (c *slackClock) fire() {
	c.now = c.due + c.slack + c.stall
	c.stall = 0
	c.ranAt = append(c.ranAt, c.now)
	fn := c.fn
	c.fn = nil
	fn()
}

func newSlackServer(tickCost time.Duration, phaseLock bool) (*slackClock, *Server) {
	clock := &slackClock{slack: 1300 * time.Microsecond, rng: rand.New(rand.NewSource(1))}
	s := NewServer(clock, Config{WorldType: "flat", ViewDistance: 16, PhaseLock: phaseLock})
	s.cost = CostParams{TickBase: tickCost} // no noise, no tails
	s.Start()
	return clock, s
}

// TestTickTimetableAbsorbsLateness: on a clock whose callbacks run 1.3 ms
// after their deadline the loop still ticks every TickInterval — the
// lateness shortens the next timer instead of stretching the period (the
// old re-arm counted a full interval from "now": 51.3 ms a tick, 19.5 Hz).
// A tick more than a whole period late re-bases the timetable: the next
// one is a full interval away, not a catch-up burst.
func TestTickTimetableAbsorbsLateness(t *testing.T) {
	clock, _ := newSlackServer(time.Millisecond, false)
	const ticks = 100
	for i := 0; i <= ticks; i++ {
		clock.fire()
	}
	span := clock.ranAt[ticks] - clock.ranAt[0]
	if want := ticks * TickInterval; span < want-clock.slack || span > want+clock.slack {
		t.Fatalf("%d ticks spanned %v, want %v ± %v", ticks, span, want, clock.slack)
	}

	clock.stall = 3 * TickInterval
	clock.fire()
	if got := clock.delays[len(clock.delays)-1]; got != TickInterval {
		t.Fatalf("after a tick three periods late the next timer is %v, want a full %v", got, TickInterval)
	}
	clock.fire()
	if got, want := clock.delays[len(clock.delays)-1], TickInterval-clock.slack; got != want {
		t.Fatalf("one tick after the stall the timer is %v, want %v", got, want)
	}
}

// TestOverlongTickSchedulesFromNow: a modelled tick longer than the
// interval is not on the timetable. It re-arms d from now — snapped up to
// the global grid under PhaseLock — exactly as before, late callback or
// not.
func TestOverlongTickSchedulesFromNow(t *testing.T) {
	const d = 70 * time.Millisecond
	for _, phaseLock := range []bool{false, true} {
		clock, _ := newSlackServer(d, phaseLock)
		for i := 0; i < 20; i++ {
			clock.fire()
			got, now := clock.delays[len(clock.delays)-1], clock.now
			want := d
			if phaseLock {
				target := now + d
				if rem := target % TickInterval; rem != 0 {
					target += TickInterval - rem
				}
				want = target - now
			}
			if got != want {
				t.Fatalf("phaseLock=%v tick %d at %v: re-armed %v ahead, want %v", phaseLock, i, now, got, want)
			}
		}
	}
}

// commitLog is a chunk store and avatar observer that records, in order,
// what reached it and the tick it arrived in.
type commitLog struct {
	srv     *Server
	entries []commitEntry
}

type commitEntry struct {
	kind string
	tick uint64
}

func (l *commitLog) add(kind string) {
	l.entries = append(l.entries, commitEntry{kind, l.srv.Tick()})
}
func (l *commitLog) Load(_ world.ChunkPos, cb func(*world.Chunk, bool)) { cb(nil, false) }
func (l *commitLog) Store(*world.Chunk)                                 { l.add("store") }
func (l *commitLog) ObserveAvatars([]world.BlockPos, int)               { l.add("observe") }

// TestCommitHookRunsOncePerTickLast: on a plain loop (commits run inline)
// and on a lane clock (commits drain after the wave) the hook fires
// exactly once per tick, behind that tick's store and observer commits;
// nil removes it.
func TestCommitHookRunsOncePerTickLast(t *testing.T) {
	for _, lane := range []bool{false, true} {
		loop := sim.NewLoop(3)
		var clock sim.Clock = loop
		if lane {
			clock = loop.Lane(1)
		}
		log := &commitLog{}
		s := NewServer(clock, Config{WorldType: "flat", ViewDistance: 32, Store: log})
		log.srv = s
		s.ConnectAt("walker", nil, 0, 0)
		s.SetCommitHook(func() { log.add("hook") })
		s.Start()
		runFor(loop, 3*time.Second)

		hooks, others := 0, 0 // others: commits the hook of their own tick came behind
		for i, e := range log.entries {
			if e.kind != "hook" {
				continue
			}
			hooks++
			if i > 0 && log.entries[i-1].kind != "hook" && log.entries[i-1].tick == e.tick {
				others++
			}
			if i+1 < len(log.entries) && log.entries[i+1].tick == e.tick {
				t.Fatalf("lane=%v tick %d: %q committed after the hook", lane, e.tick, log.entries[i+1].kind)
			}
		}
		if hooks != int(s.Tick()) {
			t.Fatalf("lane=%v: hook fired %d times in %d ticks", lane, hooks, s.Tick())
		}
		if others == 0 {
			t.Fatalf("lane=%v: no store or observer commit to order the hook against", lane)
		}

		s.SetCommitHook(nil)
		runFor(loop, time.Second)
		for _, e := range log.entries {
			if e.kind == "hook" && e.tick > uint64(hooks) {
				t.Fatalf("lane=%v: hook fired at tick %d after it was removed", lane, e.tick)
			}
		}
	}
}
