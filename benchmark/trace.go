package main

import (
	"encoding/json"
	"os"
	"time"

	"servo/internal/mve"
	"servo/internal/world"
)

// span is one benchmark-side interval: a call the benchmark made into a
// layer, or a call the system made through the WrapStore seam. Spans of
// one slice (or one probe action) share its id as their parent.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	ID     int64
	Parent int64 // 0 = root
	Track  int   // Chrome "tid": 0 = simulation thread, 1.. = probes
}

// tracer keeps spans in memory for the length of a traced unit; nothing
// is written until the run ends. A nil tracer records nothing, which is
// how untraced units run.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID int64
	// current is the id of the enclosing slice on the simulation thread
	// (store calls run inside it, in serial context).
	current int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a root span on the simulation thread and makes it the
// parent of store spans until end.
func (t *tracer) begin() (id int64, start time.Time) {
	if t == nil {
		return 0, time.Now()
	}
	t.nextID++
	t.current = t.nextID
	return t.current, time.Now()
}

func (t *tracer) end(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), ID: id})
	t.current = 0
}

// child records a completed span under the current root.
func (t *tracer) child(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.nextID++
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch), ID: t.nextID, Parent: t.current,
	})
}

// selfTimes returns, per root span name, total duration minus the part
// covered by child spans (children of one root do not overlap: they are
// sequential calls on one thread).
func selfTimes(spans []span) map[string]time.Duration {
	childTime := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Parent == 0 {
			self[s.Name] += s.End - s.Start - childTime[s.ID]
		}
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// chunkStore is everything the assembled storage stack (rstore over
// tcache) offers the game loop; the decorator must forward all of it or
// the server would silently lose batching, pre-fetching, durable flushes
// or player records and the run would no longer be the system's own
// behaviour.
type chunkStore interface {
	mve.ChunkStore
	mve.BatchingChunkStore
	mve.AvatarObserver
	mve.SyncingChunkStore
	mve.PlayerStore
}

// storeCounts is what the decorator sees cross the core.Config.WrapStore
// seam, summed over shards. Every call arrives in serial context (the
// loop thread or its commit drain), so plain fields suffice.
type storeCounts struct {
	Loads, Stores, Observes    int64 // chunk positions / chunks / calls
	LoadNs, StoreNs, ObserveNs int64 // wall time inside the calls
}

// observedStore is the WrapStore decorator: it times and counts every
// call on every unit (so traced and untraced units do identical work) and
// additionally records spans when the unit is traced.
type observedStore struct {
	inner  chunkStore
	counts *storeCounts
	tr     *tracer
}

var _ chunkStore = (*observedStore)(nil)

// done books one finished call: n items, the time since start, and a span
// when the unit is traced.
func (o *observedStore) done(name string, start time.Time, n int64, count, ns *int64) {
	end := time.Now()
	*count += n
	*ns += end.Sub(start).Nanoseconds()
	o.tr.child(name, start, end)
}

func (o *observedStore) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	start := time.Now()
	o.inner.Load(pos, cb)
	o.done("store.Load", start, 1, &o.counts.Loads, &o.counts.LoadNs)
}

func (o *observedStore) LoadMany(pos []world.ChunkPos, cb func(world.ChunkPos, *world.Chunk, bool)) {
	start := time.Now()
	o.inner.LoadMany(pos, cb)
	o.done("store.LoadMany", start, int64(len(pos)), &o.counts.Loads, &o.counts.LoadNs)
}

func (o *observedStore) Store(c *world.Chunk) {
	start := time.Now()
	o.inner.Store(c)
	o.done("store.Store", start, 1, &o.counts.Stores, &o.counts.StoreNs)
}

func (o *observedStore) StoreThen(c *world.Chunk, done func()) {
	start := time.Now()
	o.inner.StoreThen(c, done)
	o.done("store.Store", start, 1, &o.counts.Stores, &o.counts.StoreNs)
}

func (o *observedStore) ObserveAvatars(positions []world.BlockPos, viewDistance int) {
	start := time.Now()
	o.inner.ObserveAvatars(positions, viewDistance)
	o.done("store.ObserveAvatars", start, 1, &o.counts.Observes, &o.counts.ObserveNs)
}

func (o *observedStore) SavePlayer(name string, data []byte) { o.inner.SavePlayer(name, data) }

func (o *observedStore) LoadPlayer(name string, cb func([]byte, bool)) {
	o.inner.LoadPlayer(name, cb)
}
