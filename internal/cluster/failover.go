package cluster

import (
	"context"
	"fmt"
)

// Automatic failover closes the detection→recovery loop for slots with
// followers with no operator in the path (internal/health runs the detector
// and calls in here). The protocol per slot:
//
//  1. Promote — the attached synced follower with the longest applied
//     prefix becomes the owner (ReplicaSet.Promote swaps the slot's value;
//     ship-before-ack guarantees it holds every acknowledged write), the
//     followers it keeps are re-pointed at its log, and its shipping is
//     armed onto them over the rearm RPC — all inside the write fence, so
//     no write is acknowledged by an unarmed owner.
//  2. Fence — the membership version is bumped and pushed, so the
//     deposed owner's gate refuses any straggling mutation with a
//     stale-ring error once it hears the new ring. Placement (user →
//     slot) is unchanged; only the slot's owner address moved.
//
// A returning deposed owner is healed back in as a reinstalled follower by
// HealSlot (the supervisor's heal tick), which also re-pushes the ring —
// the returning node learns it is no longer the owner before it serves
// anything.

// FailoverSlot promotes a follower to own the slot and fences the
// deposed owner behind a bumped ring version. With force false it
// refuses while the owner is still healthy (ErrOwnerHealthy); force
// true is the planned-handover path. Returns the promoted member's
// previous index.
func (c *Cluster) FailoverSlot(slot int, force bool) (int, error) {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	rs, err := c.slotReplicaSet(slot)
	if err != nil {
		return -1, err
	}

	// The promotion (arm step included) and version bump sit inside the
	// write fence: no user mutation can be in flight against the demoted
	// owner while the chain's head swaps, nor reach the new owner before it
	// ships, mirroring the reshard cutover discipline.
	c.wmu.Lock()
	idx, err := rs.Promote(force)
	if err == nil {
		c.install(func(m membership) (membership, bool) { m.version++; return m, true })
	}
	c.wmu.Unlock()
	if err != nil {
		return -1, err
	}

	// Push the new ring (best-effort; a node that misses it converges on
	// its next stale-ring refusal).
	c.pushRing(context.Background())
	return idx, nil
}

// HealSlot resyncs a degraded slot — typically after the deposed owner
// comes back — demoting any returning stale owner into a following
// replica. The write fence is held across the reinstalls and the arm step
// that ends them, so no write lands between a follower's reinstall and the
// owner shipping to it, and the current ring is re-pushed first so the
// returning node knows it no longer owns the slot.
func (c *Cluster) HealSlot(slot int) error {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	rs, err := c.slotReplicaSet(slot)
	if err != nil {
		return err
	}
	if len(rs.state.Load().members) == 1 {
		return nil // no follower to resync, no chain to re-arm
	}
	// A member returning from an outage still has an open circuit breaker
	// from its downtime; a successful explicit probe closes it so that
	// the ring push reaches it and Heal admits it now instead of after
	// the breaker cooldown.
	rs.probeMembers(context.Background())
	c.pushRing(context.Background())
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return rs.Heal()
}

// SlotDegraded reports whether a slot needs healing; one without
// followers never does.
func (c *Cluster) SlotDegraded(slot int) bool {
	rs, err := c.slotReplicaSet(slot)
	if err != nil {
		return false
	}
	if rs.Degraded() {
		return true
	}
	// A follower that went down opened its client breaker; once the node
	// is back only an explicit probe closes it promptly, and until then
	// Degraded cannot see the member. Spend probes only when a follower
	// actually looks unreachable.
	if !rs.anyFollowerUnreachable() {
		return false
	}
	rs.probeMembers(context.Background())
	return rs.Degraded()
}

// ProbeSlotOwner checks the slot owner's health from the router's seat: a
// single probe, which feeds the client's breaker. The health supervisor's
// detector turns the outcome stream into an up/suspect/down verdict.
func (c *Cluster) ProbeSlotOwner(ctx context.Context, slot int) error {
	rs, err := c.slotReplicaSet(slot)
	if err != nil {
		return err
	}
	return rs.Owner().Probe(ctx)
}

// slotReplicaSet resolves a slot to its replica set.
func (c *Cluster) slotReplicaSet(slot int) (*ReplicaSet, error) {
	shards := c.mem.Load().slots
	if slot < 0 || slot >= len(shards) {
		return nil, fmt.Errorf("cluster: no slot %d", slot)
	}
	return shards[slot], nil
}
