// The interest-management layer: cross-shard avatar visibility. Each
// shard renders only its own residents, so without replication a player
// standing one block from a tile boundary cannot see an avatar two
// blocks away on the neighbouring shard — and every handoff pops the
// avatar out of one world and into another. The visibility bus closes
// the seam: each replication tick, every shard publishes a compact
// digest of its avatars standing within the border margin of a tile
// boundary (membership via world.BordersWithinAppend: the home tile's
// Topology.Neighbors ring, and further rings when the margin spans
// them), and the shards owning the bordering tiles materialise the
// entries as read-only ghost avatars (mve's ghost registry). Ghosts are
// display-and-prefetch state only; the real session stays where it is.
//
// The scan is incremental. Border membership — which shards a session
// replicates to — reads only which tiles the margin square touches and
// which tile is underfoot, and tiles are unions of whole chunks: it is a
// function of the chunk under the session, the chunk rect of its margin
// square, its host shard, and the ownership epoch. So it is cached per
// session and recomputed only for the dirty set: sessions whose chunk or
// margin rect changed (about one step in sixteen for a walker), were
// handed off, or saw the ownership table change under them (every
// migration, failover, and recovery bumps the epoch). Each session holds
// its shard-level player (Player.sess), so the scan reads positions
// without a look-up. The displaced-session pairing walks only the
// displaced — a handful of sessions, each checked against every other.
// The per-shard-pair digest state is a dense table, and the digests name
// avatars by the player name's interned key (Cluster.intern), which is
// also how the shards' ghost registries find a ghost: neither
// publication nor the audit hashes a name. The in-package tests
// cross-check the cache against a scan that recomputes everything
// (Cluster.fullRescan): both leave identical ghost registries, journals
// and gap counts.
//
// Handoffs ride the same machinery instead of popping: evicting the
// session demotes it to a pinned ghost on the source shard (viewers keep
// seeing it while its state crosses the storage substrate — pinned
// because an in-flight session cannot refresh itself), and admission on
// the target promotes the ghost there back into a real avatar. Ghosts
// that stop being refreshed — the avatar walked away from the border, or
// disconnected — expire after a few scans.
//
// The bus also audits itself: after applying the digests, it checks
// every cross-shard pair of border residents within view distance of
// each other and counts a visibility gap tick if any viewer's shard is
// missing the matching ghost. Each resident's ghost is looked up once on
// every other shard hosting a resident; a resident every host shard
// mirrors is done, and any other walks the residents for one within view
// distance on a shard that lacks its ghost (hasGap). A healthy scan
// therefore costs residents × host shards ghost look-ups and no distance
// check. A healthy configuration (margin ≥ view
// distance) holds the gap counter at zero; the bundled border-patrol
// scenario asserts exactly that.

package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"servo/internal/mve"
	"servo/internal/world"
)

// Visibility defaults.
const (
	// DefaultVisibilityInterval is the replication cadence: once per
	// server tick.
	DefaultVisibilityInterval = mve.TickInterval
	// ghostTTLScans is how many replication scans a ghost survives
	// without a refresh before it expires (handoff-pinned ghosts are
	// exempt).
	ghostTTLScans = 4
)

// VisibilityConfig tunes the interest-management layer.
type VisibilityConfig struct {
	// Enabled turns border-tile avatar replication on.
	Enabled bool
	// Margin is the border margin in blocks: avatars within Margin of a
	// tile boundary replicate to the bordering tiles' owners
	// (0 → the shard servers' view distance).
	Margin int
}

// DigestEntry is one line of the ghost digest's wire form
// (EncodeGhostDigest): an avatar another shard should mirror. The bus
// itself carries visEntry, which names the avatar by its key.
type DigestEntry struct {
	Name string
	X, Z float64
	// Home is the shard hosting the real session.
	Home int
}

// digestKindFull is the version byte every digest opens with.
const digestKindFull = 0x02

// Digest entry bounds, enforced at the encode boundary: a name longer
// than 64 KiB cannot be framed by the uint16 length prefix, and a home
// shard outside int32 cannot ride the uint32 slot. Violations are
// errors, never silent truncation.
const (
	maxDigestNameLen = math.MaxUint16
	maxDigestHome    = math.MaxInt32
)

// digestEntryMinLen is the wire size of an entry with an empty name: the
// uint16 name length, two float64 coordinates, the uint32 home.
const digestEntryMinLen = 2 + 8 + 8 + 4

// EncodeGhostDigest serialises one shard-pair digest: each entry's name,
// position, and home shard. It validates every entry and returns an
// error instead of corrupting the frame. The bus itself applies entries
// to the ghost registries in memory and never encodes; this stays for
// the frozen benchmark/ harness (its digest-encode row) and the root
// package's BenchmarkGhostDigest, which ROADMAP item 1 retires.
func EncodeGhostDigest(entries []DigestEntry) ([]byte, error) {
	size := 5 + digestEntryMinLen*len(entries)
	for i, e := range entries {
		if len(e.Name) > maxDigestNameLen {
			return nil, fmt.Errorf("ghost digest entry %d: name is %d bytes, exceeds the %d-byte frame limit", i, len(e.Name), maxDigestNameLen)
		}
		if e.Home < 0 || e.Home > maxDigestHome {
			return nil, fmt.Errorf("ghost digest entry %d (%q): home shard %d outside [0, %d]", i, e.Name, e.Home, maxDigestHome)
		}
		size += len(e.Name)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, digestKindFull)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Z))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Home))
	}
	return buf, nil
}

// viewDistance resolves the shard servers' shared view distance from the
// first alive shard — a crashed shard's config must never be consulted
// (after FailShard(0) it describes a server that no longer exists). The
// shards are built by one ShardBuilder and share one config today; that
// invariant is asserted, not assumed.
func (c *Cluster) viewDistance() int {
	vd, found := 0, false
	for i, s := range c.shards {
		if !c.table.Alive(i) {
			continue
		}
		v := s.Config().ViewDistance
		if !found {
			vd, found = v, true
			continue
		}
		if v != vd {
			panic(fmt.Sprintf("cluster: alive shards disagree on ViewDistance (%d vs %d); the visibility margins assume one shared shard config", vd, v))
		}
	}
	// found is always true: the ownership table refuses to kill the last
	// alive shard.
	return vd
}

// visMargin returns the effective border margin: the configured value,
// defaulting to the alive shard servers' view distance ("within
// ViewDistance of any tile border").
func (c *Cluster) visMargin() int {
	if c.vis.Margin > 0 {
		return c.vis.Margin
	}
	return c.viewDistance()
}

// visCache is one session's cached border membership: the replication
// targets of its position under the current ownership epoch and host
// shard. Position enters only through the chunk underfoot (which names
// the home tile) and the margin square's chunk rect (which names the
// tiles in reach); both are kept because a margin that is not a whole
// number of chunks can leave the rect in place while the session
// crosses into another tile. Any of the four changing dirties the
// session.
type visCache struct {
	valid     bool
	epoch     uint64
	shard     int
	chunk     world.ChunkPos
	rect      world.ChunkRect
	displaced bool
	// dsts are the replication target shards, ascending, own shard
	// excluded. The slice is reused across recomputations.
	dsts []int
}

// visSess is one scan's view of a session.
type visSess struct {
	p    *Player
	pos  world.BlockPos
	x, z float64
	// extra are this scan's displaced-pairing additions (ascending, own
	// shard never present); the backing array is reused across scans.
	extra []int
}

// digestMaxSkips caps how many consecutive scans a pair's publication
// may be suppressed: a forced refresh lands at least every
// digestMaxSkips+1 scans, strictly inside the ghostTTLScans expiry
// window, so a rate-limited ghost can never be reaped as stale.
const digestMaxSkips = ghostTTLScans - 2

// visEntry is one digest line as the bus applies it: the name key of an
// avatar another shard should mirror and its position. Its home shard is
// the pair's source.
type visEntry struct {
	key  int
	x, z float64
}

// visPairState is one shard pair's digest buffer and rate-limiter state,
// reused every scan.
type visPairState struct {
	entries []visEntry

	// Rate limiter: lastPub is a copy of the entry list most recently
	// published (backing array reused, so the steady-state copy allocates
	// nothing), lastEpoch the ownership epoch it was published under, and
	// skips the consecutive scans suppressed since. pubValid goes false
	// whenever the pair goes quiet (no entries), because ghosts may
	// expire while a pair is silent and a later identical-looking scan
	// must re-publish them.
	lastPub   []visEntry
	lastEpoch uint64
	pubValid  bool
	skips     int
}

// shouldSkip reports whether this scan's entries may go unpublished:
// identical to the last published digest, same ownership epoch, and the
// consecutive-skip cap not yet reached. Shared by the incremental scan
// and the full-rescan reference — both feed the same apply loop, so the
// ghost registries stay identical across the two.
func (ps *visPairState) shouldSkip(epoch uint64) bool {
	if !ps.pubValid || epoch != ps.lastEpoch || ps.skips >= digestMaxSkips {
		return false
	}
	if len(ps.entries) != len(ps.lastPub) {
		return false
	}
	for i := range ps.entries {
		if ps.entries[i] != ps.lastPub[i] {
			return false
		}
	}
	return true
}

// addSorted inserts v into the ascending slice s if absent.
func addSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// visibilityScan is one replication tick of the interest-management
// layer, rescheduled on the bus cadence.
func (c *Cluster) visibilityScan() {
	if c.stopped {
		return
	}
	defer c.clock.After(DefaultVisibilityInterval, c.visibilityScan)
	c.VisibilityScanOnce()
}

// VisibilityScanOnce runs one replication tick without scheduling the
// next: publish border digests, materialise ghosts, reap stale ones, and
// audit for visibility gaps. Exported as the benchmark entry point; the
// bus calls it on its own cadence.
func (c *Cluster) VisibilityScanOnce() {
	c.visSeq++
	margin := c.visMargin()
	if margin < 1 {
		margin = 1
	}
	epoch := c.table.Epoch()

	// Collect: walk sessions in join order, reusing each session's cached
	// border membership — every shard owning a tile within the margin,
	// plus the owner of the terrain under the session when that differs
	// from its host (residents of a freshly migrated tile stay visible to
	// the new owner's players until the handoff scan moves them). Only
	// the dirty set — chunk or margin rect changed, handed off, or stale
	// against the ownership epoch — recomputes membership.
	all := c.visAll[:0]
	displaced := c.visDisplaced[:0]
	for _, p := range c.order {
		sp := p.sess
		if sp == nil {
			continue
		}
		pos := sp.Pos()
		chunk, rect := pos.Chunk(), world.ChunkRectWithin(pos, margin)
		if c.fullRescan || !p.vc.valid || p.vc.epoch != epoch || p.vc.shard != p.shard || p.vc.chunk != chunk || p.vc.rect != rect {
			c.visRecomputes.Inc()
			home := c.table.ShardOfBlock(pos)
			dsts := p.vc.dsts[:0]
			if home != p.shard {
				dsts = addSorted(dsts, home)
			}
			c.visBorders = world.BordersWithinAppend(c.visBorders[:0], c.topo, pos, margin)
			for _, bn := range c.visBorders {
				if o := c.table.Owner(bn.Tile); o != p.shard {
					dsts = addSorted(dsts, o)
				}
			}
			p.vc = visCache{valid: true, epoch: epoch, shard: p.shard, chunk: chunk, rect: rect, displaced: home != p.shard, dsts: dsts}
		}
		if p.vc.displaced {
			displaced = append(displaced, len(all))
		}
		var extra []int
		if n := len(all); n < cap(c.visAll) {
			extra = c.visAll[:n+1][n].extra[:0]
		}
		all = append(all, visSess{p: p, pos: pos, x: sp.X, z: sp.Z, extra: extra})
	}
	c.visAll = all
	c.visDisplaced = displaced

	// Displaced sessions — hosted by a shard that no longer owns the
	// terrain under them, the migration/handoff transient — pair up with
	// every session near them: tile ownership cannot name their host
	// shard, so their neighbours publish to it (and vice versa) by
	// session geometry. They are a handful in a scan, so each one walks
	// every session; the extra sets are sorted, so the order of the walk
	// cannot reach them.
	for _, i := range displaced {
		sa := &all[i]
		for j := range all {
			sb := &all[j]
			if sb.p.shard == sa.p.shard || chebyshev(sa.pos, sb.pos) > margin {
				continue
			}
			sb.extra = addSorted(sb.extra, sa.p.shard)
			sa.extra = addSorted(sa.extra, sb.p.shard)
		}
	}

	// Publish: collect, per (src, dst) shard pair, the avatars dst should
	// mirror, in join order. residents are the sessions with any
	// replication target: the set the gap audit checks.
	n := len(c.shards)
	pairs := c.pairTable()
	for k := range pairs {
		pairs[k].entries = pairs[k].entries[:0]
	}
	words := bitWords(n)
	residents := c.visResidents[:0]
	hosts := zeroed(c.visHosts, words)
	c.visHosts = hosts
	for i := range all {
		s := &all[i]
		base := s.p.vc.dsts
		if len(base) == 0 && len(s.extra) == 0 {
			continue
		}
		residents = append(residents, i)
		setBit(hosts, s.p.shard)
		// Deterministic fan-out order: ascending shard index, merged from
		// the two ascending sets.
		bi, ei := 0, 0
		for bi < len(base) || ei < len(s.extra) {
			var dst int
			switch {
			case bi >= len(base):
				dst = s.extra[ei]
				ei++
			case ei >= len(s.extra):
				dst = base[bi]
				bi++
			case base[bi] < s.extra[ei]:
				dst = base[bi]
				bi++
			case base[bi] > s.extra[ei]:
				dst = s.extra[ei]
				ei++
			default:
				dst = base[bi]
				bi++
				ei++
			}
			if !c.table.Alive(dst) {
				continue
			}
			ps := &pairs[s.p.shard*n+dst]
			ps.entries = append(ps.entries, visEntry{key: s.p.key, x: s.x, z: s.z})
		}
	}
	c.visResidents = residents

	// Apply: materialise the digests as ghosts, in (src, dst) order. A
	// pair whose entries are identical to its last published digest under
	// an unchanged epoch is rate-limited: no registry is touched, capped
	// at digestMaxSkips consecutive scans so the staleness stamps refresh
	// before the expiry TTL.
	for k := range pairs {
		ps, dst := &pairs[k], k%n
		if len(ps.entries) == 0 {
			// Quiet pair: invalidate the limiter. Its ghosts expire over
			// the coming scans, so when traffic resumes — even with
			// byte-identical entries — publication must not be
			// suppressed.
			ps.pubValid = false
			ps.skips = 0
			continue
		}
		if ps.shouldSkip(epoch) {
			ps.skips++
			c.digestsSkipped.Inc()
			continue
		}
		for _, e := range ps.entries {
			if c.shards[dst].UpsertGhost(e.key, c.names[e.key], e.x, e.z, c.visSeq) {
				c.record(Record{Kind: GhostSpawn, Player: int32(e.key), Shard: dst})
			}
			c.GhostUpdates.Inc()
		}
		ps.lastPub = append(ps.lastPub[:0], ps.entries...)
		ps.lastEpoch = epoch
		ps.pubValid = true
		ps.skips = 0
		c.digestsSent.Inc()
	}

	// Reap: unpinned ghosts not refreshed for ghostTTLScans scans.
	if c.visSeq > ghostTTLScans {
		for i, s := range c.shards {
			if !c.table.Alive(i) {
				continue
			}
			for _, name := range s.ExpireGhosts(c.visSeq - ghostTTLScans) {
				c.record(Record{Kind: GhostExpire, Player: int32(c.nameKeys[name]), Shard: i})
			}
		}
	}

	// Audit: every cross-shard pair of border residents within view
	// distance must be mutually served by a ghost. One or more unserved
	// pairs make this a visibility gap tick. Each resident's ghost is
	// looked up once on every other host shard; a resident with a miss is
	// a suspect, and its row of missing is the bitset of the host shards
	// that lack its ghost.
	suspects, missing := c.visSuspects[:0], c.visMissing[:0]
	for _, i := range residents {
		p := all[i].p
		row := -1
		for w, m := range hosts {
			for ; m != 0; m &= m - 1 {
				dst := w<<6 | bits.TrailingZeros64(m)
				if dst == p.shard || c.shards[dst].Ghost(p.key) != nil {
					continue
				}
				if row < 0 {
					row = len(missing)
					suspects = append(suspects, i)
					for range words {
						missing = append(missing, 0)
					}
				}
				setBit(missing[row:], dst)
			}
		}
	}
	c.visSuspects, c.visMissing = suspects, missing
	if hasGap(all, residents, suspects, missing, max(c.viewDistance(), 1)) {
		c.VisibilityGaps.Inc()
	}
}

// hasGap is the gap audit: it reports whether two residents (all[i] for
// i in residents) on different shards within Chebyshev distance view of
// each other are not mirrored both ways. suspects are the residents
// whose ghost some other host shard lacks, and row s of missing (all rows
// are len(missing)/len(suspects) words) is the bitset of the shards
// lacking suspect s's ghost, its own shard excluded.
//
// Only suspects walk the residents, and each checks one direction of
// each pair: that the partner's shard holds it. The other direction is
// the partner's own check, and the partner is a suspect whenever the
// suspect's shard lacks its ghost. So the answer is the all-pairs
// answer, and a pair's distance is measured only from a resident whose
// ghost some host shard lacks.
func hasGap(all []visSess, residents, suspects []int, missing []uint64, view int) bool {
	if len(suspects) == 0 {
		return false
	}
	words := len(missing) / len(suspects)
	for s, i := range suspects {
		a, m := &all[i], missing[s*words:(s+1)*words]
		for _, j := range residents {
			if b := &all[j]; hasBit(m, b.p.shard) && chebyshev(a.pos, b.pos) <= view {
				return true
			}
		}
	}
	return false
}

func setBit(s []uint64, i int)      { s[i>>6] |= 1 << (i & 63) }
func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
func bitWords(n int) int            { return (n + 63) >> 6 }

// zeroed returns s resized to n cleared words, reusing its array.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// chebyshev is the Chebyshev distance in blocks between two positions.
func chebyshev(a, b world.BlockPos) int {
	dx, dz := a.X-b.X, a.Z-b.Z
	return max(dx, -dx, dz, -dz)
}

// pairTable returns the per-shard-pair digest state, one entry per
// (src, dst) at src*len(c.shards)+dst. A reused slot keeps its index,
// and so its pairs' state. A grown cluster starts a fresh table: a zero
// state never suppresses a publication, and AddShard bumps the ownership
// epoch, which invalidates every pair's limiter anyway.
func (c *Cluster) pairTable() []visPairState {
	if n := len(c.shards); len(c.visPairs) != n*n {
		c.visPairs = make([]visPairState, n*n)
	}
	return c.visPairs
}

// GhostCount returns the number of live ghosts across the alive shards
// (the ghost_avatars gauge).
func (c *Cluster) GhostCount() int {
	n := 0
	for i, s := range c.shards {
		if c.table.Alive(i) {
			n += s.GhostCount()
		}
	}
	return n
}

// demoteToGhost preserves an evicted session's visibility while its
// handoff crosses the storage substrate: a ghost is installed (pinned)
// on the source shard, and every other shard already mirroring the
// avatar has its ghost pinned too — an in-flight session cannot refresh
// itself, and an unpinned ghost expiring mid-flight would pop the
// avatar out of that shard's world exactly when a brownout stretches
// the flight.
func (c *Cluster) demoteToGhost(p *Player, src int, x, z float64) {
	if !c.vis.Enabled {
		return
	}
	if c.table.Alive(src) {
		if c.shards[src].UpsertGhost(p.key, p.Name, x, z, c.visSeq) {
			c.record(Record{Kind: GhostDemote, Player: int32(p.key), Shard: src})
		}
	}
	for i, s := range c.shards {
		if c.table.Alive(i) {
			s.PinGhost(p.key, true)
		}
	}
}

// promoteFromGhost completes the handoff's visibility half: the target
// shard's ghost gives way to the real avatar, and every other shard's
// pinned double is unpinned and refreshed in place (the next scan takes
// over, or it expires once the avatar leaves the border). Shards that
// lost their ghost meanwhile (a crash wiped the registry) are left
// alone — the next scan re-publishes the avatar if it still matters.
func (c *Cluster) promoteFromGhost(p *Player, src, dst int, x, z float64) {
	if !c.vis.Enabled {
		return
	}
	if c.shards[dst].RemoveGhost(p.key) {
		c.record(Record{Kind: GhostPromote, Player: int32(p.key), Shard: dst})
	}
	for i, s := range c.shards {
		if i == dst || !c.table.Alive(i) || s.Ghost(p.key) == nil {
			continue
		}
		s.UpsertGhost(p.key, p.Name, x, z, c.visSeq)
		s.PinGhost(p.key, false)
	}
}

// dropGhosts removes a session's ghosts from every shard (mid-handoff
// disconnect: the avatar is gone for good, so no ghost — pinned ones
// included — may linger anywhere).
func (c *Cluster) dropGhosts(p *Player) {
	if !c.vis.Enabled {
		return
	}
	for i, s := range c.shards {
		if c.table.Alive(i) && s.RemoveGhost(p.key) {
			c.record(Record{Kind: GhostDrop, Player: int32(p.key), Shard: i})
		}
	}
}
