package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
)

// Live resharding moves a user range between shards without stopping the
// cluster. The protocol (documented in docs/DESIGN.md §7):
//
//  1. Bootstrap — a joining slot is installed with the advertiser
//     skeleton of a live shard (its state with the users stripped, cut on
//     the member that holds it so the transfer never carries a user) so
//     replicated config and ID counters match before any user moves.
//     Re-running the bootstrap wipes a previous failed attempt's partial
//     imports.
//  2. Bulk copy — with writes still flowing, each moving user range is
//     exported in bounded chunks and imported on the destination
//     (journaled ops on both sides). Writes that land during the copy are
//     recorded in a dirty set.
//  3. Fence + delta + flip — user writes and aggregate reads are fenced
//     for a short cutover window; dirty users that move are re-copied,
//     membership flips to a new ring version, and the sources drop the
//     moved users. No write can land on a source after its final export,
//     so no acknowledged mutation is lost, and aggregates never observe a
//     user on two shards.
//
// A failed source removal after the flip does not roll back (the
// destination already owns the range); it parks in a pending set that
// gates aggregates until ResumeReshard retries it.
//
// Growing and shrinking are the same protocol run over a different pair of
// rings, so there is one driver, reshard; AddSet and RemoveShard only
// say what the next membership is.

// migrationChunkSize bounds users per state-transfer chunk, keeping each
// exported chunk well under the RPC body limit.
const migrationChunkSize = 512

// ErrReshardIncomplete gates aggregate reads while a source shard still
// holds users that were cut over to another shard — counting them would
// double-report reach and spend. ResumeReshard clears it.
var ErrReshardIncomplete error = httpapi.Unavailable("cluster: reshard incomplete: a source shard still holds moved users (run ResumeReshard)")

// ReshardReport summarizes a completed membership change.
type ReshardReport struct {
	// UsersMoved is how many distinct users changed shards.
	UsersMoved int
	// Cutover is the length of the write-fence window — the only period
	// during which user writes and aggregate reads blocked.
	Cutover time.Duration
	// Version is the membership version the change installed.
	Version uint64
}

// pendingRemoval is a post-cutover source cleanup that failed and must be
// retried before aggregates are exact again.
type pendingRemoval struct {
	shard *ReplicaSet
	users []profile.UserID
}

// MigrationStatus reports whether a reshard is in flight and how many
// source removals are still pending from a completed cutover.
func (c *Cluster) MigrationStatus() (active bool, pendingRemovals int) {
	return c.migActive.Load(), len(c.mem.Load().pending)
}

// LastReshard returns the most recent completed reshard's report (zero
// value if none has run).
func (c *Cluster) LastReshard() ReshardReport { return c.mem.Load().lastReshard }

// beginDeltaTracking arms the dirty set and drains in-flight unfenced
// writes: any write that began before the flag was visible finishes (the
// write barrier waits for all fence readers), and every later write
// records its user.
func (c *Cluster) beginDeltaTracking() {
	c.migActive.Store(true)
	c.wmu.Lock()
	//lint:ignore SA2001 empty critical section is the barrier: all writes
	// that predate migActive have drained when the write lock is acquired.
	c.wmu.Unlock()
}

func (c *Cluster) endDeltaTracking() {
	c.migActive.Store(false)
	c.dirtyMu.Lock()
	c.dirty = nil
	c.dirtyMu.Unlock()
}

func (c *Cluster) takeDirty() map[profile.UserID]struct{} {
	c.dirtyMu.Lock()
	defer c.dirtyMu.Unlock()
	d := c.dirty
	c.dirty = nil
	return d
}

// AddSet grows the cluster by one slot, live: the joining slot is
// bootstrapped with the advertiser skeleton, the user ranges the new ring
// assigns to it are streamed over in chunks while writes keep flowing, and
// a short write fence covers the final delta copy, the membership flip,
// and the source-side removals. On success the new membership version is
// pushed best-effort to every networked member.
func (c *Cluster) AddSet(joiner *ReplicaSet) (ReshardReport, error) {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	return c.reshard("add shard", append(slices.Clone(c.mem.Load().slots), joiner))
}

// RemoveShard shrinks the cluster by one shard (the last slot — the ring's
// vnode labels are index-based, so membership is a stack), streaming the
// victim's users to their new owners under the same protocol. The victim
// is left cleaned best-effort; it is out of the membership either way, so
// a failed cleanup cannot skew aggregates.
func (c *Cluster) RemoveShard() (ReshardReport, error) {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	shards := c.mem.Load().slots
	if len(shards) == 1 {
		return ReshardReport{}, fmt.Errorf("cluster: cannot remove the last shard")
	}
	return c.reshard("remove shard", shards[:len(shards)-1])
}

// reshard moves the cluster, live, from its current membership to next,
// which shares a prefix of slots with it (membership is a stack: next
// appends joining slots or drops trailing ones). The moving set is exactly
// the users whose owner differs between the old ring and the new one, so
// the same steps serve growth and shrinkage.
//
// The caller holds the replication lock, and it stays held end to end: no
// advertiser mutation can land between a joiner's skeleton bootstrap and
// the flip and leave its replicated config behind.
func (c *Cluster) reshard(what string, next []*ReplicaSet) (ReshardReport, error) {
	fail := func(stage string, err error) (ReshardReport, error) {
		c.m.reshardFailures.Inc()
		return ReshardReport{}, fmt.Errorf("cluster: %s: %s: %w", what, stage, err)
	}
	old := c.mem.Load()
	if len(old.pending) > 0 {
		return ReshardReport{}, ErrReshardIncomplete
	}
	cur, oldRing := old.slots, old.ring
	newRing := NewRing(len(next), old.vnodes)
	// all indexes every slot of either membership: the shared prefix, then
	// whichever side is longer.
	all := cur
	if len(next) > len(cur) {
		all = next
	}
	for i, rs := range all {
		if _, err := rs.writer(); err != nil {
			return ReshardReport{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	// copyRange streams users between two slots in bounded chunks. Export
	// is a consistent read, import a journaled replace — re-copying a user
	// is idempotent, which is what makes the delta pass safe.
	copyRange := func(from, to int, users []profile.UserID) error {
		src, err := all[from].writer()
		if err != nil {
			return err
		}
		dst, err := all[to].writer()
		if err != nil {
			return err
		}
		for len(users) > 0 {
			n := min(len(users), migrationChunkSize)
			chunk, err := src.ExportUsers(users[:n])
			if err != nil {
				return fmt.Errorf("exporting: %w", err)
			}
			if err := dst.ImportUsers(chunk); err != nil {
				return fmt.Errorf("importing: %w", err)
			}
			users = users[n:]
		}
		return nil
	}

	// Bootstrap each joiner: shard 0's advertiser skeleton — cut on the
	// member, so the transfer is advertiser state whatever the shard's
	// population — re-seeded here from a fresh stream so its auction
	// randomness never collides with a live shard's (the strip is repeated
	// with the re-seed: a member built before the skeleton request field
	// answers with its users). Installing replaces everything, wiping any
	// partial imports a previous failed attempt left behind.
	for slot := len(cur); slot < len(next); slot++ {
		src, err := cur[0].writer()
		if err != nil {
			return fail("snapshotting shard 0", err)
		}
		st, _, err := src.StateAndLSN(true)
		if err != nil {
			return fail("snapshotting shard 0", err)
		}
		seed := stats.SubSeed(stats.SubSeed(st.Seed, uint64(slot)), old.version)
		if err := next[slot].InstallState(platform.StripUsersState(st, seed)); err != nil {
			return fail("bootstrapping joining shard", err)
		}
		next[slot].bindMetrics(&c.m.replica)
	}

	c.beginDeltaTracking()
	defer c.endDeltaTracking()

	// moved[from] collects every user that leaves slot from, for the
	// source-side removal after the flip. copyMoving copies the users whose
	// new owner differs from the slot they are on, route by route in slot
	// order.
	moved := make([]map[profile.UserID]struct{}, len(cur))
	copyMoving := func(users []profile.UserID, on func(profile.UserID) int) error {
		plan := make([][][]profile.UserID, len(cur)) // plan[from][to]
		for i := range plan {
			plan[i] = make([][]profile.UserID, len(next))
		}
		for _, u := range users {
			if from, to := on(u), newRing.Owner(string(u)); from != to {
				plan[from][to] = append(plan[from][to], u)
			}
		}
		for from := range plan {
			for to, list := range plan[from] {
				if len(list) == 0 {
					continue
				}
				if err := copyRange(from, to, list); err != nil {
					return fmt.Errorf("%d users from shard %d to shard %d: %w", len(list), from, to, err)
				}
				if moved[from] == nil {
					moved[from] = make(map[profile.UserID]struct{}, len(list))
				}
				for _, u := range list {
					moved[from][u] = struct{}{}
				}
			}
		}
		return nil
	}

	// Bulk copy, writes still flowing. Each slot's list comes from its owner
	// (authoritative) through a call that can fail: a slot that could not be
	// listed must not read as a slot with nobody to move.
	for i, rs := range cur {
		src, err := rs.writer()
		var users []profile.UserID
		if err == nil {
			users, err = src.ListUsers()
		}
		if err != nil {
			return fail("listing", fmt.Errorf("shard %d: %w", i, err))
		}
		if err := copyMoving(users, func(profile.UserID) int { return i }); err != nil {
			return fail("copying", err)
		}
	}

	// Fence writes and aggregates, re-copy what changed during the bulk
	// pass, flip membership, drop the moved users from their sources.
	c.wmu.Lock()
	fenceStart := time.Now()
	dirty := setToSorted(c.takeDirty())
	if err := copyMoving(dirty, func(u profile.UserID) int { return oldRing.Owner(string(u)) }); err != nil {
		c.wmu.Unlock()
		return fail("delta-copying", err)
	}

	ver := c.install(func(m membership) (membership, bool) {
		m.slots, m.ring, m.version = slices.Clone(next), newRing, m.version+1
		return m, true
	}).version

	// Source removals stay inside the fence: between the flip and the
	// removal a moved user exists on two shards, and the fence is what
	// keeps aggregates from seeing that. A failed removal rolls forward —
	// the destination owns the range either way. On a source still in the
	// ring it parks in the pending set that gates aggregates until
	// ResumeReshard drains it; a source that left the ring cannot
	// double-count, and a later re-bootstrap wipes it, so there the
	// cleanup is best-effort.
	total := 0
	var failed []pendingRemoval
	for from, set := range moved {
		if len(set) == 0 {
			continue
		}
		users := setToSorted(set)
		total += len(users)
		src, err := cur[from].writer()
		if err == nil {
			err = src.RemoveUsers(users)
		}
		if err != nil && from < len(next) {
			failed = append(failed, pendingRemoval{shard: cur[from], users: users})
			c.m.reshardFailures.Inc()
		}
	}
	rep := ReshardReport{UsersMoved: total, Cutover: time.Since(fenceStart), Version: ver}
	c.install(func(m membership) (membership, bool) { m.pending, m.lastReshard = failed, rep; return m, true })
	c.wmu.Unlock()

	c.m.reshardTotal.Inc()
	c.m.reshardUsersMoved.Add(uint64(total))
	c.m.reshardCutover.Observe(rep.Cutover)
	// A slot that left is pushed the ring too: its address is in no slot of
	// it, so its gate refuses every user op as stale and a router still on
	// the old ring refreshes instead of reading a moved user as unknown.
	c.pushRing(context.Background(), cur[min(len(cur), len(next)):]...)
	return rep, nil
}

// ResumeReshard retries the source-side removals a cutover left pending.
// Removals are idempotent (removing an already-removed user is a no-op),
// so a crash between retry and bookkeeping is safe to re-run. Like every
// membership-level operation it runs under the replication lock, so the
// pending list it read is the one it replaces.
func (c *Cluster) ResumeReshard() error {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	var remaining []pendingRemoval
	var firstErr error
	for _, p := range c.mem.Load().pending {
		m, err := p.shard.writer()
		if err == nil {
			err = m.RemoveUsers(p.users)
		}
		if err != nil {
			remaining = append(remaining, p)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	c.install(func(m membership) (membership, bool) { m.pending = remaining; return m, true })
	if firstErr != nil {
		return fmt.Errorf("cluster: resuming reshard: %w", firstErr)
	}
	return nil
}

func setToSorted(set map[profile.UserID]struct{}) []profile.UserID {
	out := make([]profile.UserID, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- membership refresh (router side) ---

// Membership is a resolved view of cluster membership: the slots in ring
// order plus the ring geometry they were built under.
type Membership struct {
	Version      uint64
	VirtualNodes int
	Shards       []*ReplicaSet
}

// MembershipSource resolves current membership when a shard refuses a call
// with a stale-ring error. RemoteMembershipSource queries shard nodes; a
// test source can hand back memberships directly.
type MembershipSource interface {
	Fetch() (Membership, error)
}

// SetMembershipSource installs the refresher used to recover from
// rpc.ErrStaleRing refusals.
func (c *Cluster) SetMembershipSource(src MembershipSource) {
	c.srcMu.Lock()
	c.src = src
	c.srcMu.Unlock()
}

// RefreshMembership fetches membership from the configured source and
// installs it if it is newer than what the router holds.
func (c *Cluster) RefreshMembership() error {
	c.srcMu.Lock()
	src := c.src
	c.srcMu.Unlock()
	if src == nil {
		return errors.New("cluster: no membership source configured")
	}
	m, err := src.Fetch()
	if err != nil {
		return fmt.Errorf("cluster: fetching membership: %w", err)
	}
	return c.installMembership(m)
}

func (c *Cluster) installMembership(in Membership) error {
	if in.Version == 0 {
		return nil // no node holds a ring yet: nothing to adopt
	}
	ring, err := checkedRing(len(in.Shards), in.VirtualNodes)
	if err != nil {
		return err
	}
	for _, rs := range in.Shards {
		rs.bindMetrics(&c.m.replica)
	}
	c.install(func(m membership) (membership, bool) {
		if in.Version <= m.version {
			// Already current (or the source is behind us); nothing to do.
			return m, false
		}
		m.slots, m.ring = slices.Clone(in.Shards), ring
		m.version, m.vnodes = in.Version, in.VirtualNodes
		return m, true
	})
	return nil
}

// RemoteMembershipSource resolves membership by asking shard nodes for the
// ring they serve and dialing the advertised addresses of the newest.
// Dial should reuse cached clients per address — a refresh must not leak a
// connection pool per call.
type RemoteMembershipSource struct {
	// Seeds are all queried at once; the highest version any of them
	// holds wins, so one node that missed a best-effort push cannot pin
	// the router to its ring. Version 0 means no seed holds a ring yet.
	Seeds []*rpc.Client
	// Dial turns one advertised slot (owner address plus replicas) into a
	// routable ReplicaSet over RemoteShards.
	Dial func(info rpc.ShardInfo) *ReplicaSet
	// Timeout bounds each seed query; <= 0 selects 5s.
	Timeout time.Duration
}

// Fetch implements MembershipSource.
func (s *RemoteMembershipSource) Fetch() (Membership, error) {
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	rings := make([]rpc.RingInfo, len(s.Seeds))
	errs := make([]error, len(s.Seeds))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	fanOut(len(s.Seeds), len(s.Seeds), func(i int) { rings[i], errs[i] = rpc.Do(ctx, s.Seeds[i], rpc.OpRing, struct{}{}) })
	best := -1
	for i, err := range errs {
		if err == nil && (best < 0 || rings[i].Version > rings[best].Version) {
			best = i
		}
	}
	if best < 0 {
		err := errors.New("no membership seeds configured")
		if len(errs) > 0 {
			err = errs[0]
		}
		return Membership{}, fmt.Errorf("cluster: no seed answered a ring query: %w", err)
	}
	ri := rings[best]
	shards := make([]*ReplicaSet, len(ri.Shards))
	for i, si := range ri.Shards {
		shards[i] = s.Dial(si)
	}
	return Membership{Version: ri.Version, VirtualNodes: ri.VirtualNodes, Shards: shards}, nil
}

// --- wire-form membership (gates, pushes, admin) ---

// RingInfo renders current membership in wire form: the input to shard
// gates, ring pushes, and the admin cluster endpoint.
func (c *Cluster) RingInfo() rpc.RingInfo {
	info, _ := c.RingAndSlots()
	return info
}

// RingAndSlots is RingInfo together with the slots it describes, index for
// index: both come from one membership value, so a listing that pairs
// them (the admin status endpoint, a ring push) cannot straddle a change.
func (c *Cluster) RingAndSlots() (rpc.RingInfo, []*ReplicaSet) {
	m := c.mem.Load()
	info := rpc.RingInfo{Version: m.version, VirtualNodes: m.vnodes, Shards: make([]rpc.ShardInfo, len(m.slots))}
	if info.VirtualNodes <= 0 {
		info.VirtualNodes = DefaultVirtualNodes
	}
	for i, rs := range m.slots {
		st := rs.state.Load()
		info.Shards[i] = rpc.ShardInfo{Addr: memberAddr(st.members[0]), Replicas: st.replicaAddrs(false)}
	}
	return info, slices.Clone(m.slots)
}

// memberAddr returns a member's dialable address ("" for in-process
// members, which never serve a gate).
func memberAddr(s Shard) string {
	if nm, ok := s.(networkedMember); ok {
		return nm.Addr()
	}
	return ""
}

// pushRing best-effort pushes current membership to every networked
// member, and to those of the slots in left, which it no longer names.
// Failures are ignored: a node that missed the push answers the next
// misrouted call with a stale-ring refusal, and the router's refresh path
// converges it.
func (c *Cluster) pushRing(ctx context.Context, left ...*ReplicaSet) {
	info, slots := c.RingAndSlots()
	for _, rs := range append(slots, left...) {
		for _, m := range rs.state.Load().members {
			if nm, ok := m.(networkedMember); ok {
				_ = nm.PushRing(ctx, info)
			}
		}
	}
}

// --- shard-side membership gate ---

// Gate is the shard-node side of ring versioning: it answers "do I serve
// this user under the membership I hold?" for every user-scoped RPC, and
// accepts monotonic ring pushes. A node boots knowing only its own
// advertised address, so a gate that has seen no push serves everything
// and reports version 0 ("this node has seen no ring yet"); from the first
// push on it enforces the pushed ring. It implements rpc.MembershipGate;
// wire it with rpc.Server.SetGate.
//
// The pushed ring is one immutable value behind an atomic pointer: the
// ownership checks, which run on every user-scoped RPC, load it without a
// lock, and only SetRing takes the mutex that orders pushes.
type Gate struct {
	self string

	mu   sync.Mutex               // serializes SetRing
	held atomic.Pointer[heldRing] // nil until the first push
}

// heldRing is a pushed membership together with the ring it describes.
type heldRing struct {
	info rpc.RingInfo
	ring *Ring
}

var _ rpc.MembershipGate = (*Gate)(nil)

// NewGate builds a gate for the node advertised as self (the exact address
// the router publishes in ring pushes), holding no membership yet.
func NewGate(self string) *Gate { return &Gate{self: self} }

// OwnsUser reports whether this node serves the user under the held ring:
// the owning slot's address, or one of its replica addresses (replicas
// serve failover reads; write refusal is the platform follower's job).
func (g *Gate) OwnsUser(user string) error {
	h := g.held.Load()
	if h == nil {
		return nil
	}
	slot := h.ring.Owner(user)
	si := h.info.Shards[slot]
	if si.Addr == g.self || slices.Contains(si.Replicas, g.self) {
		return nil
	}
	return fmt.Errorf("user %q belongs to shard %d (%s) under ring version %d, not to %s", user, slot, si.Addr, h.info.Version, g.self)
}

// OwnsUserWrite is the mutation gate: only the owning slot's address may
// apply a user write. Replica addresses do NOT pass — this is what
// fences a deposed owner after an automatic promotion bumps the ring
// version and demotes it to a replica: once it holds the new ring, any
// retried mutation against it is refused with a stale-ring error
// instead of becoming a dirty write.
func (g *Gate) OwnsUserWrite(user string) error {
	h := g.held.Load()
	if h == nil {
		return nil
	}
	slot := h.ring.Owner(user)
	si := h.info.Shards[slot]
	if si.Addr == g.self {
		return nil
	}
	return fmt.Errorf("write for user %q belongs to shard %d's owner (%s) under ring version %d, not to %s", user, slot, si.Addr, h.info.Version, g.self)
}

// Ring returns the membership this node serves, zero before any push.
func (g *Gate) Ring() rpc.RingInfo {
	if h := g.held.Load(); h != nil {
		return h.info
	}
	return rpc.RingInfo{}
}

// SetRing installs pushed membership. Versions never move backwards; an
// equal version is accepted idempotently.
func (g *Gate) SetRing(info rpc.RingInfo) error {
	if info.Version == 0 {
		return errors.New("cluster: gate: refusing membership version 0 (versions start at 1)")
	}
	ring, err := checkedRing(len(info.Shards), info.VirtualNodes)
	if err != nil {
		return fmt.Errorf("cluster: gate: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if held := g.Ring().Version; info.Version < held {
		return fmt.Errorf("cluster: gate: stale membership push: holding version %d, got %d", held, info.Version)
	}
	g.held.Store(&heldRing{info: info, ring: ring})
	return nil
}
