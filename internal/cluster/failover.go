package cluster

import (
	"context"
	"fmt"
	"time"
)

// Automatic failover closes the detection→recovery loop for slots with
// followers with no operator in the path (internal/health runs the detector
// and calls in here). The protocol per slot:
//
//  1. Promote — the attached synced follower with the longest applied
//     prefix becomes the owner (ReplicaSet.Promote swaps the slot's value;
//     ship-before-ack guarantees it holds every acknowledged write).
//  2. Fence — the membership version is bumped and pushed, so the
//     deposed owner's gate refuses any straggling mutation with a
//     stale-ring error once it hears the new ring. Placement (user →
//     slot) is unchanged; only the slot's owner address moved.
//  3. Re-arm — a networked new owner is told to ship its journal to the
//     remaining followers (the rearm RPC), so replication continues
//     without a process restart.
//
// A returning deposed owner is healed back in as a resyncing follower by
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

	// The promotion and version bump sit inside the write fence: no user
	// mutation can be in flight against the demoted owner while the
	// chain's head swaps, mirroring the reshard cutover discipline.
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
	// its next stale-ring refusal) and re-arm shipping from the new
	// owner. Both run outside the fence — they dial peers.
	c.pushRing(context.Background())
	c.rearmSlot(rs)
	return idx, nil
}

// HealSlot resyncs a degraded slot — typically after the deposed owner
// comes back — demoting any returning stale owner into a following
// replica. The write fence is held across the resync so journal-tail
// replay cannot interleave with live shipping, and the current ring is
// re-pushed so the returning node knows it no longer owns the slot.
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
	err = rs.Heal()
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	c.rearmSlot(rs)
	return nil
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

// ProbeSlotOwner checks the slot owner's health from the router's seat:
// a single probe for remote owners (feeding the client's breaker), a
// local health read otherwise. The health supervisor's detector turns
// the outcome stream into an up/suspect/down verdict.
func (c *Cluster) ProbeSlotOwner(ctx context.Context, slot int) error {
	rs, err := c.slotReplicaSet(slot)
	if err != nil {
		return err
	}
	s := rs.Owner()
	if nm, ok := s.(networkedMember); ok {
		return nm.Probe(ctx)
	}
	if !shardHealthy(s) {
		return fmt.Errorf("cluster: slot %d owner: %w", slot, ErrShardUnavailable)
	}
	return nil
}

// slotReplicaSet resolves a slot to its replica set.
func (c *Cluster) slotReplicaSet(slot int) (*ReplicaSet, error) {
	shards := c.mem.Load().slots
	if slot < 0 || slot >= len(shards) {
		return nil, fmt.Errorf("cluster: no slot %d", slot)
	}
	return shards[slot], nil
}

// rearmSlot tells a networked owner to ship to the slot's followers.
// In-process owners were re-wired by Promote itself. Best-effort: a
// missed re-arm is retried by the supervisor's heal tick.
func (c *Cluster) rearmSlot(rs *ReplicaSet) {
	st := rs.state.Load()
	nm, ok := st.members[0].(networkedMember)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Only attached followers join the new chain: shipping to the still-
	// down deposed owner would fail every write indeterminately. Heal
	// reattaches it, then re-arms again with the full set.
	_ = nm.Rearm(ctx, st.replicaAddrs(true))
}
