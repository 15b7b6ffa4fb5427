// Periodic player checkpointing. The handoff path persists a player
// snapshot only when the player crosses a region boundary, so a shard
// failure could restore a sedentary player merely at its scan-tracked
// last position, inventory lost. The checkpoint loop closes that hole:
// every interval, each live session's snapshot is written through the
// cluster's Transfer (the same retrying storage path handoffs use, so a
// brownout delays but never loses a checkpoint), and FailShard's readmit
// then finds a full record for players that never moved.

package cluster

import (
	"slices"

	"servo/internal/mve"
)

// checkpointTick persists every live session's snapshot and schedules
// the next round. Sessions mid-handoff are skipped — their snapshot is
// already crossing the storage substrate.
func (c *Cluster) checkpointTick() {
	if c.stopped {
		return
	}
	defer c.clock.After(c.cfg.Checkpoint, c.checkpointTick)
	for _, p := range slices.Clone(c.order) {
		if p.sess == nil {
			continue
		}
		snap, ok := c.shards[p.shard].SnapshotPlayer(p.sess.ID)
		if !ok {
			continue
		}
		c.transfer.Save(p.Name, mve.EncodeSnapshot(snap), func() {})
	}
}
