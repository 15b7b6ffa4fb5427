// Bounded record logs. The cluster keeps three append-only transition
// logs — handoffs, ownership migrations, ghost-registry events — whose
// sequences are part of the deterministic replay surface. Appending
// forever is a memory leak in long diurnal scenarios, so each log is a
// ring keeping the most recent records: the replay surface stays the
// ordered sequence of appends (tests compare prefixes of equal runs, so
// equal runs shed equal prefixes), only the tail retained in memory is
// bounded.

package cluster

// DefaultLogRetention is the default per-log retention cap: generous
// enough that every bundled scenario retains its full history, small
// enough that a cluster running for days stays bounded.
const DefaultLogRetention = 65536

// RecordRing is a bounded append-only log keeping the most recent cap
// records. Build one with newRecordRing; Cluster initialises its logs
// with DefaultLogRetention.
type RecordRing[T any] struct {
	cap   int
	buf   []T
	start int    // index of the oldest record when the ring has wrapped
	total uint64 // records ever appended
}

// newRecordRing returns a ring retaining the last cap (> 0) records.
func newRecordRing[T any](cap int) RecordRing[T] {
	return RecordRing[T]{cap: cap}
}

// Append adds a record, evicting the oldest once the cap is reached.
func (r *RecordRing[T]) Append(v T) {
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % r.cap
}

// Len returns the number of records currently retained.
func (r *RecordRing[T]) Len() int { return len(r.buf) }

// Total returns the number of records ever appended (retained or
// evicted).
func (r *RecordRing[T]) Total() uint64 { return r.total }

// All returns the retained records, oldest first.
func (r *RecordRing[T]) All() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}
