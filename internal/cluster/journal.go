// The cluster's journal: one record per control-plane event, appended in
// serial context only, so the sequence is part of the deterministic
// replay surface at any worker-pool size. The control-plane counts are
// its per-kind totals. It is a ring keeping the most recent records; the
// totals keep counting past eviction.

package cluster

import (
	"fmt"
	"io"
	"slices"
	"time"

	"servo/internal/world"
)

// DefaultLogRetention is the journal's retention cap: generous enough
// that every bundled scenario retains its full history, small enough
// that a cluster running for days stays bounded.
const DefaultLogRetention = 65536

// Kind is what a journal record records; its row in kinds says what.
type Kind uint8

// The kinds, in the order of their rows in kinds. The autoscaling kinds
// stay last (Kind.Scale).
const (
	Handoff Kind = iota
	GhostSpawn
	GhostDemote
	GhostPromote
	GhostExpire
	GhostDrop
	MoveRebalance
	MoveDrain
	MoveScaleUp
	MoveSpread
	Failover
	Recover
	Retire
	FailedOver
	Rebalance
	Reload
	ScaleUp
	Drain
	Spread
	Quarantine
	Readmit
	ScaleDown
	numKinds
)

// kinds names each kind and formats its record's fields; the format's
// arguments are, by index, the player's name, the tile's X and Z, Shard,
// Peer, N, Epoch and Latency. A move's Shard and Peer are the tile's old
// and new owner; FailedOver's are the failed shard and the re-admitting
// one; Rebalance names the tile the controller picked.
var kinds = [numKinds]struct{ name, format string }{
	Handoff:       {"handoff", "player=%[1]s shard=%[4]d peer=%[5]d latency=%[8]s"},
	GhostSpawn:    {"spawn", "player=%[1]s shard=%[4]d"},
	GhostDemote:   {"demote", "player=%[1]s shard=%[4]d"},
	GhostPromote:  {"promote", "player=%[1]s shard=%[4]d"},
	GhostExpire:   {"expire", "player=%[1]s shard=%[4]d"},
	GhostDrop:     {"drop", "player=%[1]s shard=%[4]d"},
	MoveRebalance: {"move/rebalance", moveFormat},
	MoveDrain:     {"move/drain", moveFormat},
	MoveScaleUp:   {"move/scale-up", moveFormat},
	MoveSpread:    {"move/spread", moveFormat},
	Failover:      {"failover", "shard=%[4]d epoch=%[7]d"},
	Recover:       {"recover", "shard=%[4]d epoch=%[7]d"},
	Retire:        {"retire", "shard=%[4]d epoch=%[7]d"},
	FailedOver:    {"failed-over", "player=%[1]s shard=%[4]d peer=%[5]d"},
	Rebalance:     {"rebalance", "tile=%[2]d,%[3]d shard=%[4]d peer=%[5]d"},
	Reload:        {"reload", "shard=%[4]d n=%[6]d epoch=%[7]d"},
	ScaleUp:       {"scale-up", "shard=%[4]d epoch=%[7]d"},
	Drain:         {"drain", "shard=%[4]d n=%[6]d epoch=%[7]d"},
	Spread:        {"spread", "shard=%[4]d n=%[6]d epoch=%[7]d"},
	Quarantine:    {"quarantine", "shard=%[4]d epoch=%[7]d"},
	Readmit:       {"readmit", "shard=%[4]d epoch=%[7]d"},
	ScaleDown:     {"scale-down", "shard=%[4]d epoch=%[7]d"},
}

const moveFormat = "tile=%[2]d,%[3]d shard=%[4]d peer=%[5]d epoch=%[7]d latency=%[8]s"

// String returns the kind's name.
func (k Kind) String() string { return kinds[k].name }

// Scale reports whether k is an autoscaling event.
func (k Kind) Scale() bool { return k >= ScaleUp }

// Record is one journal entry; only the fields its kind's format names
// are set. It holds no pointer: Player is the name's interned key. Epoch
// is the ownership epoch after the event; N counts the chunks a reload
// re-read or the tiles a drain or a spread plans to move; Latency is a
// handoff's eviction-to-admission time or a move's flush-to-flip time.
type Record struct {
	At      time.Duration
	Kind    Kind
	Shard   int
	Peer    int
	Tile    world.TileID
	Epoch   uint64
	Player  int32
	N       int32
	Latency time.Duration
}

// Journal is the cluster's bounded, ordered record of control-plane
// events, plus per-kind totals over every record ever appended.
type Journal struct {
	cap    int
	buf    []Record
	start  int // index of the oldest record once the ring has wrapped
	totals [numKinds]int64
}

// add appends r, evicting the oldest record once the cap is reached.
func (j *Journal) add(r Record) {
	j.totals[r.Kind]++
	if len(j.buf) < j.cap {
		j.buf = append(j.buf, r)
		return
	}
	j.buf[j.start] = r
	j.start = (j.start + 1) % j.cap
}

// Count returns how many records of the given kinds were ever appended,
// evicted ones included.
func (j *Journal) Count(ks ...Kind) int64 {
	var n int64
	for _, k := range ks {
		n += j.totals[k]
	}
	return n
}

// Records returns the retained records, oldest first.
func (j *Journal) Records() []Record {
	return slices.Concat(j.buf[j.start:], j.buf[:j.start])
}

// record stamps r with the current virtual time and journals it.
func (c *Cluster) record(r Record) {
	r.At = c.clock.Now()
	c.Journal.add(r)
}

// WriteJournal writes the retained records to w, oldest first, one line
// each: the virtual time in the scenario log's column, the kind, and its
// fields, the player's name resolved.
func (c *Cluster) WriteJournal(w io.Writer) {
	for _, r := range c.Journal.Records() {
		name := "" // a kind without a player may come before any name
		if int(r.Player) < len(c.names) {
			name = c.names[r.Player]
		}
		fmt.Fprintf(w, "[%10s] %s ", r.At, r.Kind)
		fmt.Fprintf(w, kinds[r.Kind].format+"\n", name, r.Tile.X, r.Tile.Z, r.Shard, r.Peer, r.N, r.Epoch, r.Latency)
	}
}
