package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
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
//     Heal reinstalls its state.
//   - An attached follower's cursor counts positions in the current
//     owner's log: Promote re-points every follower it keeps at the new
//     owner's LSN and detaches the rest.
//   - A member demoted by Promote is detached: excluded from shipping AND
//     from promotion until Heal resyncs it. Detaching both together is
//     what keeps the promotion invariant — a member that may have missed
//     acknowledged writes can never become the owner.
type ReplicaSet struct {
	// state is the slot's current value. A slotState is never mutated once
	// stored: a reader loads the pointer once and works on that value for
	// the rest of its call, whatever happens to the slot meanwhile; a writer
	// (Promote, reattach, bindMetrics) builds the next value under mu and
	// swaps it in. mu orders the writers only — no reader takes it.
	state atomic.Pointer[slotState]
	mu    sync.Mutex

	// readCursor round-robins replicated reads across the owner and the
	// synced attached followers while the owner is healthy.
	readCursor atomic.Uint64
	// statusCache memoizes follow status for members whose status check
	// costs an RPC, so the read path stays off the network.
	scMu        sync.Mutex
	statusCache map[Shard]cachedFollowStatus
}

// slotState is one value of a slot: who its members are, in which order,
// and which of them are out of the chain.
type slotState struct {
	members []Shard
	// detached[i] marks a member that is out of the shipping chain and not
	// promotable until Heal resyncs it; index 0 (the owner) is never
	// detached.
	detached []bool
	met      *replicaCounters
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
// an unreplicated shard). Call Chain to arm the owner's journal shipping.
func NewReplicaSet(owner Shard, followers ...Shard) *ReplicaSet {
	met := newReplicaCounters(nil)
	members := append([]Shard{owner}, followers...)
	rs := &ReplicaSet{statusCache: make(map[Shard]cachedFollowStatus)}
	rs.state.Store(&slotState{members: members, detached: make([]bool, len(members)), met: &met})
	return rs
}

// bindMetrics points the set at the cluster's registered replica counters.
func (rs *ReplicaSet) bindMetrics(met *replicaCounters) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	next := *rs.state.Load()
	next.met = met
	rs.state.Store(&next)
}

// Owner returns the current owner (members[0]).
func (rs *ReplicaSet) Owner() Shard { return rs.state.Load().members[0] }

// Healthy reports whether the set can serve anything at all (some member
// is up) — the routing layer's read gate.
func (rs *ReplicaSet) Healthy() bool {
	return slices.ContainsFunc(rs.state.Load().members, shardHealthy)
}

// WriteHealthy reports whether the owner can accept mutations.
func (rs *ReplicaSet) WriteHealthy() bool { return shardHealthy(rs.Owner()) }

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
	st := rs.state.Load()
	members := st.members
	if len(members) == 1 {
		return members[0] // no follower: nothing to balance onto or fail over to
	}
	if shardHealthy(members[0]) {
		pick := int(rs.readCursor.Add(1) % uint64(len(members)))
		if pick != 0 && !st.detached[pick] && shardHealthy(members[pick]) && rs.followerSynced(members[pick]) {
			st.met.replicaReads.Inc()
			return members[pick]
		}
		return members[0]
	}
	var fallback Shard
	for i := 1; i < len(members); i++ {
		f := members[i]
		if st.detached[i] || !shardHealthy(f) {
			continue
		}
		if fallback == nil {
			fallback = f
		}
		if fs, err := followStatus(f); err == nil && fs.Synced {
			st.met.failoverReads.Inc()
			return f
		}
	}
	if fallback != nil {
		st.met.failoverReads.Inc()
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

// Chain arms the owner's journal shipping onto the attached followers, so
// every journaled write on the owner is pushed to each of them before it is
// acknowledged. It is the one arm step. An in-process owner gets the set's
// shipping hook, or none when no follower is attached. A networked owner
// ships from its own process and is told the attached followers' addresses
// over the rearm RPC — unless the slot has no follower at all, since such a
// handle names none of the followers the node may have been given itself
// (-replicate). Promote and Heal end with this step, so under the
// coordinator's FailoverSlot and HealSlot it runs inside the write fence.
//
// A networked owner that cannot be armed may not ship to the followers this
// set holds, so they are all detached: none of them is promotable or read
// from until Heal reinstalls it and arms again.
func (rs *ReplicaSet) Chain() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.arm()
}

// arm is Chain under rs.mu.
func (rs *ReplicaSet) arm() error {
	st := rs.state.Load()
	switch o := st.members[0].(type) {
	case localMember:
		if slices.Contains(st.detached[1:], false) {
			o.SetShipper(rs.ship)
		} else {
			o.SetShipper(nil)
		}
		return nil
	case networkedMember:
		if len(st.members) == 1 {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := o.Rearm(ctx, st.replicaAddrs(true)); err != nil {
			next := *st
			next.detached = make([]bool, len(st.members))
			for i := 1; i < len(next.detached); i++ {
				next.detached[i] = true
			}
			rs.state.Store(&next)
			return fmt.Errorf("cluster: arming the owner's shipping: %w", err)
		}
		return nil
	}
	if len(st.members) == 1 {
		return nil
	}
	return fmt.Errorf("cluster: replica chain owner: %w", ErrMigrationUnsupported)
}

// ship pushes one owner journal record to every attached follower. Any
// failure is returned (making the originating write indeterminate for its
// caller); the failed follower stays behind until Heal resyncs it.
// Detached members are skipped without error — they are already excluded
// from promotion, so skipping them cannot lose an acknowledged write.
func (rs *ReplicaSet) ship(lsn uint64, payload []byte) error {
	st := rs.state.Load()
	var firstErr error
	for i := 1; i < len(st.members); i++ {
		if st.detached[i] {
			continue
		}
		a, ok := st.members[i].(platform.Member)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("follower %d: %w", i, ErrMigrationUnsupported)
			}
			continue
		}
		if err := a.ApplyShipped(lsn, payload); err != nil {
			st.met.shipFailures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("follower %d: %w", i, err)
			}
			continue
		}
		st.met.shipRecords.Inc()
	}
	return firstErr
}

// ErrOwnerHealthy refuses a promotion on a slot whose owner is still
// accepting writes: promoting past a live owner silently forks the chain
// (two members accept writes for the same slot). A planned handover must
// say so explicitly by forcing it.
var ErrOwnerHealthy = errors.New("cluster: slot owner is healthy; promotion refused (use force for a planned handover)")

// Promote elects the attached healthy follower with the longest applied
// prefix as the new owner, ends its follow mode, and swaps in the slot
// value that has it at the head. The demoted member stays in the set,
// detached, until Heal brings it back as a follower. Returns the promoted
// member's previous index. Without force — the planned handover
// (maintenance drains, failback after an automatic promotion) — promotion
// is refused with ErrOwnerHealthy while the owner is still up.
//
// Every other attached follower counted its cursor in the deposed owner's
// log, and the new owner numbers its own. One that is synced, healthy and
// at the elected member's position holds the new owner's state, so it is
// re-pointed at the new owner's LSN; any other is detached for Heal.
// Promote ends with the arm step (Chain).
func (rs *ReplicaSet) Promote(force bool) (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cur := rs.state.Load()
	if len(cur.members) == 1 {
		return -1, errors.New("cluster: promote: slot has no follower")
	}
	if !force && shardHealthy(cur.members[0]) {
		return -1, fmt.Errorf("cluster: promote: %w", ErrOwnerHealthy)
	}
	best := -1
	// status stays zero (not synced) for a member that is detached, down or
	// unreadable.
	status := make([]platform.FollowStatus, len(cur.members))
	for i := 1; i < len(cur.members); i++ {
		f, ok := cur.members[i].(platform.Member)
		if !ok || cur.detached[i] || !shardHealthy(cur.members[i]) {
			continue
		}
		st, err := f.FollowStatus()
		if err != nil {
			continue
		}
		status[i] = st
		if best == -1 || st.ShipLSN > status[best].ShipLSN {
			best = i
		}
	}
	if best == -1 {
		return -1, fmt.Errorf("cluster: promote: no attached healthy follower: %w", ErrShardUnavailable)
	}
	if err := cur.members[best].(platform.Member).EndFollow(); err != nil {
		return -1, fmt.Errorf("cluster: promoting follower %d: %w", best, err)
	}
	next := &slotState{members: slices.Clone(cur.members), detached: slices.Clone(cur.detached), met: cur.met}
	for i := 1; i < len(cur.members); i++ {
		if i == best {
			continue
		}
		if !status[i].Synced || status[i].ShipLSN != status[best].ShipLSN ||
			cur.members[i].(platform.Member).BeginFollow(status[best].LastLSN) != nil {
			next.detached[i] = true
		}
	}
	next.members[0], next.members[best] = next.members[best], next.members[0]
	next.detached[0], next.detached[best] = false, true
	rs.state.Store(next)
	next.met.promotions.Inc()
	// The promotion stands whatever the arm step returns: the caller must
	// still fence the deposed owner, and a failed arm has detached every
	// follower, leaving the slot degraded for Heal.
	_ = rs.arm()
	return best, nil
}

// Degraded reports whether the chain needs healing: some follower is
// detached (a demoted owner, a crash-replaced member) or healthy but out
// of sync. The health supervisor polls this to decide when to run Heal.
func (rs *ReplicaSet) Degraded() bool {
	st := rs.state.Load()
	for i := 1; i < len(st.members); i++ {
		if !shardHealthy(st.members[i]) {
			continue // unreachable members cannot be healed yet
		}
		if st.detached[i] {
			return true
		}
		if fs, err := followStatus(st.members[i]); err == nil && !fs.Synced {
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
	for _, m := range rs.state.Load().members {
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
	return slices.ContainsFunc(rs.state.Load().members[1:], func(f Shard) bool { return !shardHealthy(f) })
}

// Heal reinstalls every reachable follower from the current owner, puts it
// back in the chain, and ends with the arm step (Chain). Call it with the
// owner quiesced — a reinstall racing live shipping would interleave two
// record streams.
func (rs *ReplicaSet) Heal() error {
	st := rs.state.Load()
	var firstErr error
	for i := 1; i < len(st.members); i++ {
		if !shardHealthy(st.members[i]) {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: follower %d: %w", i, ErrShardUnavailable)
			}
			continue
		}
		if err := st.resync(st.members[i]); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: resyncing follower %d: %w", i, err)
			}
			continue
		}
		rs.reattach(i, st.members[i])
	}
	if err := rs.Chain(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// reattach swaps in the slot value with member i back in the chain, after
// a successful resync. A Promote may have reordered the members since the
// caller loaded its value, so the flag is cleared only if the member still
// sits at that index.
func (rs *ReplicaSet) reattach(i int, s Shard) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	cur := rs.state.Load()
	if cur.members[i] != s || !cur.detached[i] {
		return
	}
	next := *cur
	next.detached = slices.Clone(cur.detached)
	next.detached[i] = false
	rs.state.Store(&next)
}

// resync reinstalls the owner's full state on follower f and points its
// cursor at the owner's LSN. There is no journal-tail shortcut from the
// follower's cursor: a cursor is a bare LSN, and once an owner has taken
// writes its followers did not see (an owner recovered from a crash, a
// reshard retry before the heal) the same number names a different record
// in its log, so a replay can land on the owner's LSN with a different
// state. Only the reinstall is known to converge.
func (st *slotState) resync(f Shard) error {
	om, ok := st.members[0].(platform.Member)
	if !ok {
		return fmt.Errorf("cluster: replica owner: %w", ErrMigrationUnsupported)
	}
	fm, ok := f.(platform.Member)
	if !ok {
		return fmt.Errorf("cluster: replica follower: %w", ErrMigrationUnsupported)
	}
	state, lsn, err := om.StateAndLSN(false)
	if err != nil {
		return err
	}
	if err := fm.InstallState(state); err != nil {
		return err
	}
	if err := fm.BeginFollow(lsn); err != nil {
		return err
	}
	st.met.resyncs.Inc()
	return nil
}

// InstallState replaces state on every member — an install is the one
// migration op that cannot ride journal shipping (it rewrites the journal
// base itself) — then points the followers at the owner's resulting LSN.
// It is how the reshard driver bootstraps a joining replicated slot.
func (rs *ReplicaSet) InstallState(st platform.State) error {
	members := rs.state.Load().members
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

// replicaAddrs returns the followers' dialable addresses: all of them (ring
// pushes, admin listings), or with attachedOnly just the ones in the
// shipping chain — the list the arm step hands a networked owner (shipping
// to a detached member would fail every write).
func (st *slotState) replicaAddrs(attachedOnly bool) []string {
	var out []string
	for i := 1; i < len(st.members); i++ {
		if attachedOnly && st.detached[i] {
			continue
		}
		if a := memberAddr(st.members[i]); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Close closes every closable member; the first error wins.
func (rs *ReplicaSet) Close() error {
	var firstErr error
	for i, m := range rs.state.Load().members {
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
