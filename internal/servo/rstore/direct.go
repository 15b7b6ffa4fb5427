package rstore

import (
	"servo/internal/blob"
	"servo/internal/mve"
	"servo/internal/servo/tcache"
	"servo/internal/world"
)

var _ mve.ChunkStore = (*Uncached)(nil)

// Uncached is a direct blob-backed chunk-and-player store with no cache:
// the baselines' local persistence (blob.TierLocal), Fig. 13's uncached
// serverless configuration, and the local side of the scenario engine's
// storage flips.
type Uncached struct {
	remote *blob.Store
	// pool recycles decoded chunks; nil falls back to plain allocation.
	pool *world.ChunkPool
}

// NewUncached returns an uncached store over remote that decodes loads
// into chunks from pool (nil: plain allocation).
func NewUncached(remote *blob.Store, pool *world.ChunkPool) *Uncached {
	return &Uncached{remote: remote, pool: pool}
}

// Load implements mve.ChunkStore. GetRetrying: a false not-found would
// make the server regenerate and overwrite the persisted chunk.
func (u *Uncached) Load(pos world.ChunkPos, cb func(*world.Chunk, bool)) {
	u.remote.GetRetrying(tcache.Key(pos), func(data []byte, err error) {
		if err != nil {
			cb(nil, false)
			return
		}
		c := u.pool.Get(pos)
		// Sealed: storing it back unchanged rewrites this slice.
		if derr := c.LoadEncoded(data); derr != nil {
			u.pool.Put(c)
			cb(nil, false)
			return
		}
		cb(c, true)
	})
}

// LoadMany implements mve.ChunkStore: each position takes the same
// retrying read path as Load, in the order given.
func (u *Uncached) LoadMany(pos []world.ChunkPos, cb func(pos world.ChunkPos, c *world.Chunk, ok bool)) {
	for _, cp := range pos {
		u.Load(cp, func(c *world.Chunk, ok bool) { cb(cp, c, ok) })
	}
}

// Store implements mve.ChunkStore. The blob store keeps the very slice
// Encoded returns, which is never written again, so an unchanged chunk is
// stored without encoding or copying anything.
func (u *Uncached) Store(c *world.Chunk) {
	u.remote.PutRetrying(tcache.Key(c.Pos), c.Encoded())
}

// StoreThen implements mve.ChunkStore: done runs once data for the chunk
// is durably stored — even if a concurrent unload-path write superseded
// this one (ownership migrations gate the tile flip on it).
func (u *Uncached) StoreThen(c *world.Chunk, done func()) {
	u.remote.PutDurablyThen(tcache.Key(c.Pos), c.Encoded(), done)
}

// ObserveAvatars implements mve.ChunkStore: with no cache there is
// nothing to pre-fetch into.
func (u *Uncached) ObserveAvatars([]world.BlockPos, int) {}

// SavePlayer implements mve.ChunkStore.
func (u *Uncached) SavePlayer(name string, data []byte) {
	u.remote.PutRetrying(PlayerKey(name), data)
}

// LoadPlayer implements mve.ChunkStore. GetRetrying: a false "new
// player" would reset the player's persisted progress.
func (u *Uncached) LoadPlayer(name string, cb func([]byte, bool)) {
	u.remote.GetRetrying(PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// Transfer persists handoff snapshots under the player's storage key on
// the shared remote store (a cluster.Transfer): the handoff save doubles
// as the player's persisted record (the snapshot encoding is a superset
// of the player record), and durable retrying writes make brownouts
// delay-only.
type Transfer struct {
	remote *blob.Store
}

// NewTransfer returns a transfer over remote.
func NewTransfer(remote *blob.Store) *Transfer { return &Transfer{remote: remote} }

// Save writes the snapshot and calls done once data for the player's key
// is durable — this write, or a newer one that superseded it.
func (t *Transfer) Save(name string, data []byte, done func()) {
	t.remote.PutDurablyThen(PlayerKey(name), data, done)
}

// Load reads the snapshot back, retrying through injected faults.
func (t *Transfer) Load(name string, cb func(data []byte, ok bool)) {
	t.remote.GetRetrying(PlayerKey(name), func(data []byte, err error) {
		cb(data, err == nil)
	})
}

// OwnershipKey is the blob-store key of the persisted ownership table.
const OwnershipKey = "cluster/ownership"

// TableStore persists the cluster's ownership table on the shared remote
// store (a cluster.TableStore): every epoch change is written through
// with retries, so a brownout delays but never loses an ownership
// decision, and a cluster restarting over the same world resumes its
// ownership history.
type TableStore struct {
	remote *blob.Store
}

// NewTableStore returns a table store over remote.
func NewTableStore(remote *blob.Store) *TableStore { return &TableStore{remote: remote} }

// SaveTable writes the encoded table, retrying through injected faults.
func (t *TableStore) SaveTable(data []byte) {
	t.remote.PutRetrying(OwnershipKey, data)
}

// LoadTable reads the persisted table back; ok is false if none was
// ever written.
func (t *TableStore) LoadTable(cb func(data []byte, ok bool)) {
	t.remote.GetRetrying(OwnershipKey, func(data []byte, err error) {
		cb(data, err == nil)
	})
}
