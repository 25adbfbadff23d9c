package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/platform"
)

// ReplicaSet is one ring slot: a chain of one or more members. members[0]
// is the owner (all writes), the rest are journal-shipping followers; an
// unreplicated shard is a chain with no followers. The Cluster holds one
// per slot and picks the member itself — writer for a mutation, reader for
// a read or a gather — so a read fails over to a healthy follower when the
// owner is down, and Promote turns a follower into the owner after a crash.
//
// Invariants the chain maintains (pinned by the cluster and chaos tests):
//
//   - A write is acknowledged only after every follower applied it; a
//     shipping failure surfaces as an indeterminate error to the caller,
//     so the set of acknowledged writes is always a subset of every
//     follower's applied prefix.
//   - Therefore promotion of any follower preserves every acknowledged
//     write, whichever member had applied the most.
//   - Followers refuse direct mutations (platform.ErrFollowing) and refuse
//     out-of-order shipments (platform.ErrNotSynced), so a desynced
//     follower can never silently diverge — it stays read-only stale until
//     Heal replays the owner's journal tail or reinstalls its state.
//   - A member demoted by Promote is detached: excluded from shipping AND
//     from promotion until Heal resyncs it. Detaching both together is
//     what keeps the promotion invariant — a member that may have missed
//     acknowledged writes can never become the owner.
type ReplicaSet struct {
	mu      sync.RWMutex
	members []Shard
	// detached[i] marks a member that is out of the shipping chain and not
	// promotable until Heal resyncs it; index 0 (the owner) is never
	// detached.
	detached []bool
	met      *replicaCounters

	// readCursor round-robins replicated reads across the owner and the
	// synced attached followers while the owner is healthy.
	readCursor atomic.Uint64
	// statusCache memoizes follow status for members whose status check
	// costs an RPC, so the read path stays off the network.
	scMu        sync.Mutex
	statusCache map[Shard]cachedFollowStatus
}

// cachedFollowStatus is one member's memoized "synced follower" verdict.
type cachedFollowStatus struct {
	expires time.Time
	synced  bool
}

// followStatusTTL bounds how stale a remote member's cached follow status
// may be on the read path. A follower that just desynced keeps serving
// reads for at most this long — it still holds every previously
// acknowledged write, so those reads are stale, never wrong.
const followStatusTTL = 250 * time.Millisecond

// NewReplicaSet assembles a slot with the given owner and followers (none:
// an unreplicated shard). Call Chain to wire journal shipping for
// in-process members (networked owners ship server-side).
func NewReplicaSet(owner Shard, followers ...Shard) *ReplicaSet {
	met := newReplicaCounters(nil)
	members := append([]Shard{owner}, followers...)
	return &ReplicaSet{
		members:     members,
		detached:    make([]bool, len(members)),
		met:         &met,
		statusCache: make(map[Shard]cachedFollowStatus),
	}
}

// bindMetrics points the set at the cluster's registered replica counters.
func (rs *ReplicaSet) bindMetrics(met *replicaCounters) {
	rs.mu.Lock()
	rs.met = met
	rs.mu.Unlock()
}

// Owner returns the current owner (members[0]).
func (rs *ReplicaSet) Owner() Shard {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.members[0]
}

// Members returns a copy of the member list, owner first.
func (rs *ReplicaSet) Members() []Shard {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return append([]Shard(nil), rs.members...)
}

// Healthy reports whether the set can serve anything at all (some member
// is up) — the routing layer's read gate.
func (rs *ReplicaSet) Healthy() bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	for _, m := range rs.members {
		if shardHealthy(m) {
			return true
		}
	}
	return false
}

// WriteHealthy reports whether the owner can accept mutations.
func (rs *ReplicaSet) WriteHealthy() bool {
	return shardHealthy(rs.Owner())
}

// writer returns the owner, or a typed refusal when it is down — writes
// never fail over implicitly; promotion is an explicit operator (or
// harness) decision because it draws the indeterminate-write line.
func (rs *ReplicaSet) writer() (Shard, error) {
	o := rs.Owner()
	if !shardHealthy(o) {
		return nil, fmt.Errorf("owner down: %w", ErrShardUnavailable)
	}
	return o, nil
}

// member resolves the journaled member that currently takes the slot's
// writes (followers receive migration records through journal shipping
// like any other write). A promotion can change the owner mid-reshard, so
// the driver resolves per call rather than once per reshard.
func (rs *ReplicaSet) member() (platform.Member, error) {
	o, err := rs.writer()
	if err != nil {
		return nil, err
	}
	m, ok := o.(platform.Member)
	if !ok {
		return nil, ErrMigrationUnsupported
	}
	return m, nil
}

// reader returns the member to serve a user-scoped read. With the owner
// healthy, replicated reads round-robin across the owner and every
// attached synced healthy follower — ship-before-ack means a synced
// follower holds every acknowledged write, so follower reads are exact
// for acknowledged state. With the owner down, reads fail over to the
// best follower: synced if possible, any healthy one otherwise (reads
// may then be stale during the failover window; they are never wrong
// about acknowledged state, which every attached follower holds).
func (rs *ReplicaSet) reader() Shard {
	rs.mu.RLock()
	members := rs.members
	if len(members) == 1 {
		rs.mu.RUnlock()
		return members[0] // no follower: nothing to balance onto or fail over to
	}
	detached := append([]bool(nil), rs.detached...)
	met := rs.met
	rs.mu.RUnlock()
	if shardHealthy(members[0]) {
		pick := int(rs.readCursor.Add(1) % uint64(len(members)))
		if pick != 0 && !detached[pick] && shardHealthy(members[pick]) && rs.followerSynced(members[pick]) {
			met.replicaReads.Inc()
			return members[pick]
		}
		return members[0]
	}
	var fallback Shard
	for i := 1; i < len(members); i++ {
		f := members[i]
		if detached[i] || !shardHealthy(f) {
			continue
		}
		if fallback == nil {
			fallback = f
		}
		if st, err := followStatus(f); err == nil && st.Synced {
			met.failoverReads.Inc()
			return f
		}
	}
	if fallback != nil {
		met.failoverReads.Inc()
		return fallback
	}
	return members[0]
}

// followerSynced reports whether f is a synced follower fit to serve
// replicated reads. In-process members are checked live; networked
// members, whose status costs an RPC, answer through a short-TTL cache.
func (rs *ReplicaSet) followerSynced(f Shard) bool {
	if _, remote := f.(networkedMember); !remote {
		st, err := followStatus(f)
		return err == nil && st.Synced
	}
	now := time.Now()
	rs.scMu.Lock()
	if e, ok := rs.statusCache[f]; ok && now.Before(e.expires) {
		rs.scMu.Unlock()
		return e.synced
	}
	rs.scMu.Unlock()
	st, err := followStatus(f)
	verdict := err == nil && st.Synced
	rs.scMu.Lock()
	rs.statusCache[f] = cachedFollowStatus{expires: now.Add(followStatusTTL), synced: verdict}
	rs.scMu.Unlock()
	return verdict
}

// --- shipping, promotion, resync ---

// followStatus reads a member's follower view of itself.
func followStatus(s Shard) (platform.FollowStatus, error) {
	m, ok := s.(platform.Member)
	if !ok {
		return platform.FollowStatus{}, fmt.Errorf("cluster: member has no follower status: %w", ErrMigrationUnsupported)
	}
	return m.FollowStatus()
}

// Chain wires journal shipping from the owner to the followers: every
// journaled write on the owner is pushed to each follower before it is
// acknowledged. Only in-process owners can be chained here (a networked
// owner ships from its own process); a chain with no followers has
// nothing to wire.
func (rs *ReplicaSet) Chain() error {
	members := rs.Members()
	if len(members) == 1 {
		return nil
	}
	lm, ok := members[0].(localMember)
	if !ok {
		return fmt.Errorf("cluster: replica chain owner: %w", ErrMigrationUnsupported)
	}
	lm.SetShipper(rs.ship)
	return nil
}

// ship pushes one owner journal record to every attached follower. Any
// failure is returned (making the originating write indeterminate for its
// caller); the failed follower stays behind until Heal resyncs it.
// Detached members are skipped without error — they are already excluded
// from promotion, so skipping them cannot lose an acknowledged write.
func (rs *ReplicaSet) ship(lsn uint64, payload []byte) error {
	rs.mu.RLock()
	members := rs.members
	detached := append([]bool(nil), rs.detached...)
	met := rs.met
	rs.mu.RUnlock()
	var firstErr error
	for i := 1; i < len(members); i++ {
		if detached[i] {
			continue
		}
		a, ok := members[i].(platform.Member)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("follower %d: %w", i, ErrMigrationUnsupported)
			}
			continue
		}
		if err := a.ApplyShipped(lsn, payload); err != nil {
			met.shipFailures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("follower %d: %w", i, err)
			}
			continue
		}
		met.shipRecords.Inc()
	}
	return firstErr
}

// ErrOwnerHealthy refuses a promotion on a slot whose owner is still
// accepting writes: promoting past a live owner silently forks the chain
// (two members accept writes for the same slot). A planned handover must
// say so explicitly with ForcePromote.
var ErrOwnerHealthy = errors.New("cluster: slot owner is healthy; promotion refused (use force for a planned handover)")

// Promote elects the attached healthy follower with the longest applied
// prefix as the new owner, ends its follow mode, and rewires shipping from
// it. The demoted member stays in the set, detached, until Heal brings it
// back as a follower. Returns the promoted member's previous index.
// Promotion is refused with ErrOwnerHealthy while the owner is still up.
func (rs *ReplicaSet) Promote() (int, error) { return rs.promote(false) }

// ForcePromote is Promote without the healthy-owner guard — the planned
// handover path (maintenance drains, failback after an automatic
// promotion). The demoted owner is detached like any other demotion.
func (rs *ReplicaSet) ForcePromote() (int, error) { return rs.promote(true) }

func (rs *ReplicaSet) promote(force bool) (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.members) == 1 {
		return -1, errors.New("cluster: promote: slot has no follower")
	}
	if !force && shardHealthy(rs.members[0]) {
		return -1, fmt.Errorf("cluster: promote: %w", ErrOwnerHealthy)
	}
	best := -1
	var bestLSN uint64
	var elected platform.Member
	for i := 1; i < len(rs.members); i++ {
		f, ok := rs.members[i].(platform.Member)
		if !ok || rs.detached[i] || !shardHealthy(rs.members[i]) {
			continue
		}
		st, err := f.FollowStatus()
		if err != nil {
			continue
		}
		if best == -1 || st.ShipLSN > bestLSN {
			best, bestLSN, elected = i, st.ShipLSN, f
		}
	}
	if best == -1 {
		return -1, fmt.Errorf("cluster: promote: no attached healthy follower: %w", ErrShardUnavailable)
	}
	if err := elected.EndFollow(); err != nil {
		return -1, fmt.Errorf("cluster: promoting follower %d: %w", best, err)
	}
	rs.members[0], rs.members[best] = rs.members[best], rs.members[0]
	rs.detached[0], rs.detached[best] = false, true
	if lm, ok := rs.members[0].(localMember); ok {
		lm.SetShipper(rs.ship)
	}
	rs.met.promotions.Inc()
	return best, nil
}

// Degraded reports whether the chain needs healing: some follower is
// detached (a demoted owner, a crash-replaced member) or healthy but out
// of sync. The health supervisor polls this to decide when to run Heal.
func (rs *ReplicaSet) Degraded() bool {
	rs.mu.RLock()
	members := append([]Shard(nil), rs.members...)
	detached := append([]bool(nil), rs.detached...)
	rs.mu.RUnlock()
	for i := 1; i < len(members); i++ {
		if !shardHealthy(members[i]) {
			continue // unreachable members cannot be healed yet
		}
		if detached[i] {
			return true
		}
		if st, err := followStatus(members[i]); err == nil && !st.Synced {
			return true
		}
	}
	return false
}

// probeMembers sends one explicit health probe to every member that
// supports it (remote members), feeding each client's circuit breaker. A
// member returning from an outage still has an open breaker from its
// downtime; an explicit probe can close it immediately, where waiting on
// the routing path alone would stall until the breaker cooldown.
// Best-effort: a failed probe just leaves the breaker open.
func (rs *ReplicaSet) probeMembers(ctx context.Context) {
	rs.mu.RLock()
	members := append([]Shard(nil), rs.members...)
	rs.mu.RUnlock()
	for _, m := range members {
		if nm, ok := m.(networkedMember); ok {
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_ = nm.Probe(pctx)
			cancel()
		}
	}
}

// anyFollowerUnreachable reports whether some follower currently fails
// the health check — the cue for SlotDegraded to spend a probe on it.
func (rs *ReplicaSet) anyFollowerUnreachable() bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	for i := 1; i < len(rs.members); i++ {
		if !shardHealthy(rs.members[i]) {
			return true
		}
	}
	return false
}

// Heal resynchronizes every follower from the current owner: a journal
// tail replay from the follower's last shipped LSN when the owner still
// holds that tail, a full state reinstall otherwise (compacted tail, or a
// follower too far gone). Call it with the owner quiesced — resync racing
// live shipping would interleave two record streams.
func (rs *ReplicaSet) Heal() error {
	rs.mu.RLock()
	members := rs.members
	rs.mu.RUnlock()
	var firstErr error
	for i := 1; i < len(members); i++ {
		if !shardHealthy(members[i]) {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: follower %d: %w", i, ErrShardUnavailable)
			}
			continue
		}
		if err := rs.resync(members[0], members[i]); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: resyncing follower %d: %w", i, err)
			}
			continue
		}
		rs.reattach(i, members[i])
	}
	return firstErr
}

// reattach clears a member's detached flag after a successful resync. The
// member list may have been reshuffled (by Promote) since the caller
// snapshotted it, so the flag is cleared only if the member still sits at
// that index.
func (rs *ReplicaSet) reattach(i int, s Shard) {
	rs.mu.Lock()
	if i < len(rs.members) && rs.members[i] == s {
		rs.detached[i] = false
	}
	rs.mu.Unlock()
}

// resync brings follower f back onto owner's log and into follow mode.
func (rs *ReplicaSet) resync(owner, f Shard) error {
	rs.mu.RLock()
	met := rs.met
	rs.mu.RUnlock()
	om, ok := owner.(platform.Member)
	if !ok {
		return fmt.Errorf("cluster: replica owner: %w", ErrMigrationUnsupported)
	}
	fm, ok := f.(platform.Member)
	if !ok {
		return fmt.Errorf("cluster: replica follower: %w", ErrMigrationUnsupported)
	}

	// Fast path (in-process owners, whose journal tail is readable here):
	// replay the owner's tail from the follower's last applied owner-LSN.
	// Only a member that is actually in follow mode may take it — a
	// demoted former owner reports ShipLSN 0 while its state sits at some
	// later LSN, and replaying the tail onto it would apply every record
	// twice. The replay counts as a resync only if it lands the follower
	// exactly on the owner's LSN: a follower that applied an
	// unacknowledged record the current owner never saw (possible when the
	// old owner died mid-ship) has diverged by that record and needs the
	// full reinstall. So does any replay failure, a compacted tail
	// included — the reinstall always converges.
	if lm, ok := owner.(localMember); ok {
		if st, err := fm.FollowStatus(); err == nil && st.Following {
			// Re-arm the follower at its current position: a desynced
			// follower refuses shipments until its cursor is reset.
			if err := fm.BeginFollow(st.ShipLSN); err != nil {
				return err
			}
			if lm.TailSince(st.ShipLSN, fm.ApplyShipped) == nil {
				ost, oerr := om.FollowStatus()
				fst, ferr := fm.FollowStatus()
				if oerr == nil && ferr == nil && fst.Synced && fst.ShipLSN == ost.LastLSN {
					met.resyncs.Inc()
					return nil
				}
			}
		}
	}

	// Slow path: reinstall the owner's full state and follow from its LSN.
	st, lsn, err := om.StateAndLSN(false)
	if err != nil {
		return err
	}
	if err := fm.InstallState(st); err != nil {
		return err
	}
	if err := fm.BeginFollow(lsn); err != nil {
		return err
	}
	met.resyncs.Inc()
	return nil
}

// InstallState replaces state on every member — an install is the one
// migration op that cannot ride journal shipping (it rewrites the journal
// base itself) — then points the followers at the owner's resulting LSN.
// It is how the reshard driver bootstraps a joining replicated slot.
func (rs *ReplicaSet) InstallState(st platform.State) error {
	rs.mu.RLock()
	members := rs.members
	rs.mu.RUnlock()
	ms := make([]platform.Member, len(members))
	for i, s := range members {
		m, ok := s.(platform.Member)
		if !ok {
			return fmt.Errorf("cluster: replica member %d: %w", i, ErrMigrationUnsupported)
		}
		if err := m.InstallState(st); err != nil {
			return fmt.Errorf("cluster: installing state on member %d: %w", i, err)
		}
		ms[i] = m
	}
	if len(ms) == 1 {
		return nil
	}
	ost, err := ms[0].FollowStatus()
	if err != nil {
		return fmt.Errorf("cluster: reading owner LSN after install: %w", err)
	}
	for i := 1; i < len(ms); i++ {
		if err := ms[i].BeginFollow(ost.LastLSN); err != nil {
			return fmt.Errorf("cluster: re-following member %d: %w", i, err)
		}
	}
	return nil
}

// --- addressing (ring pushes, admin) ---

// ReplicaAddrs returns the followers' dialable addresses.
func (rs *ReplicaSet) ReplicaAddrs() []string {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	var out []string
	for _, f := range rs.members[1:] {
		if a := memberAddr(f); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// AttachedReplicaAddrs returns the dialable addresses of only the
// followers currently in the shipping chain — the follower list a
// promoted owner is re-armed with (shipping to a detached member would
// fail every write).
func (rs *ReplicaSet) AttachedReplicaAddrs() []string {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	var out []string
	for i := 1; i < len(rs.members); i++ {
		if rs.detached[i] {
			continue
		}
		if a := memberAddr(rs.members[i]); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Close closes every closable member; the first error wins.
func (rs *ReplicaSet) Close() error {
	rs.mu.RLock()
	members := rs.members
	rs.mu.RUnlock()
	var firstErr error
	for i, m := range members {
		cl, ok := m.(io.Closer)
		if !ok {
			continue
		}
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: closing replica member %d: %w", i, err)
		}
	}
	return firstErr
}
