package chaos

// Post-quiescence verification: the five invariant families the harness
// asserts after the last round. Everything here is read-only against the
// recovered shards except probeReplication, which runs last because it
// mutates replicated state on purpose.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"

	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// stateBytes is a state's snapshot document in memory, for the byte-identity
// invariants to compare.
func stateBytes(s platform.State) ([]byte, error) {
	var buf bytes.Buffer
	err := platform.WriteSnapshot(&buf, s)
	return buf.Bytes(), err
}

// quiesce brings every shard to a healthy, recovered steady state and
// runs the recovery-identity check: each shard's state must marshal
// byte-identically before a clean close and after reopening from disk. A
// shard whose journal went sticky is crash-recovered first — that is the
// documented remedy — so the identity check always runs against a journal
// that can be cleanly closed.
//
// Replication is checked first, on the chains exactly as the last round's
// heal left them: the close/reopen cycle below sends every follower
// through a reinstall, which would hide a follower the heal accepted at
// the owner's LSN with a different state.
func (h *harness) quiesce(res *Result) {
	h.inj.Arm(false)
	for _, n := range h.nodes {
		if n.tr != nil {
			n.tr.SetPartitioned(false)
		}
	}
	h.verifyReplication(res)
	for _, n := range h.nodes {
		if n.Journaled.JournalFailed() != nil {
			h.cfg.Logf("quiesce: shard %d journal failed sticky; crash-recovering", n.idx)
			if err := n.crash(); err != nil {
				res.violate("recovery", "shard %d: crash-recovery of failed journal: %v", n.idx, err)
				return
			}
			res.Crashes++
		}
	}
	for _, n := range h.nodes {
		before, err := stateBytes(n.Journaled.State())
		if err != nil {
			res.violate("recovery", "shard %d: marshalling pre-close state: %v", n.idx, err)
			continue
		}
		if n.sn != nil {
			n.sn.Kill()
		}
		if err := n.Journaled.Close(); err != nil {
			res.violate("recovery", "shard %d: clean close of healthy journal: %v", n.idx, err)
			continue
		}
		n.Journaled = nil
		if err := n.open(); err != nil {
			res.violate("recovery", "shard %d: reopen after clean close: %v", n.idx, err)
			continue
		}
		after, err := stateBytes(n.Journaled.State())
		if err != nil {
			res.violate("recovery", "shard %d: marshalling recovered state: %v", n.idx, err)
			continue
		}
		if !bytes.Equal(before, after) {
			res.violate("recovery", "shard %d: recovered state differs from pre-close state (%d vs %d bytes)",
				n.idx, len(before), len(after))
		}
	}
	if err := h.awaitHealthy(); err != nil {
		res.violate("recovery", "%v", err)
	}

	// The close/reopen cycle replaced every platform handle (dropping
	// shipper closures) and left followers out of follow mode: re-arm and
	// resync every chain so verification sees the steady state an
	// operator's recovery runbook would restore.
	h.healReplicas(res)

	// Drain any source-side removals a faulted cutover left pending —
	// until they land, a moved user exists on two shards and aggregate
	// reads are gated behind ErrReshardIncomplete.
	if _, pend := h.clu.MigrationStatus(); pend > 0 {
		h.cfg.Logf("quiesce: %d pending source removals; resuming reshard", pend)
		if err := h.clu.ResumeReshard(); err != nil {
			res.violate("membership", "pending source removals did not drain on the recovered cluster: %v", err)
		}
	}
}

// verify checks the accounting, billing, convergence, replication, and
// membership invariants against the recovered cluster. State-merging
// loops walk one node per slot — the current owner; the replication
// invariant separately proves every follower byte-identical to it, so
// counting followers would double-bill by construction.
func (h *harness) verify(res *Result) {
	ctx := context.Background()
	led := &h.ledger

	// Merge each slot's exact totals directly off the recovered
	// platforms — the ground truth the advertiser-visible path must
	// agree with.
	merged := make(map[string]platform.CampaignTotals, len(h.campaigns))
	for _, camp := range h.campaigns {
		var m platform.CampaignTotals
		for si, g := range h.slots {
			t, err := g.owner().Journaled.CampaignTotals(ctx, h.advertiser, camp)
			if err != nil {
				res.violate("accounting", "slot %d: reading totals for %s: %v", si, camp, err)
				continue
			}
			m.Impressions += t.Impressions
			m.Reach += t.Reach
			m.Spend += t.Spend
		}
		merged[camp] = m
	}

	// Durability and accounting bounds. Per campaign the platform must
	// retain at least what it acknowledged; in total it must not have
	// committed more than acked plus the slots of indeterminate browses.
	// When nothing was indeterminate the bound collapses to equality.
	var mergedSum int64
	for _, camp := range h.campaigns {
		acked := led.acked[camp]
		got := int64(merged[camp].Impressions)
		mergedSum += got
		if got < acked {
			res.violate("durability", "campaign %s: %d impressions acknowledged to users but only %d survived recovery",
				camp, acked, got)
		}
		if led.indeterminate == 0 && got != acked {
			res.violate("accounting", "campaign %s: no indeterminate failures, yet platform holds %d impressions vs %d acked",
				camp, got, acked)
		}
	}
	if mergedSum > led.ackedTotal+led.indeterminate {
		res.violate("accounting", "platform holds %d impressions, but only %d were acked (+%d indeterminate slots)",
			mergedSum, led.ackedTotal, led.indeterminate)
	}

	// No double billing: the ledger's exact totals must equal a recount
	// of every user feed (one ledger entry per delivered impression, one
	// reach unit per distinct user), and the advertiser-visible cluster
	// report must equal billing.MakeReport over the merged totals —
	// thresholding applied exactly once, at the edge.
	for _, camp := range h.campaigns {
		feedImps := 0
		reach := make(map[profile.UserID]bool)
		for _, g := range h.slots {
			n := g.owner()
			for _, uid := range n.Journaled.Users() {
				for _, imp := range n.Journaled.Feed(uid) {
					if imp.CampaignID == camp {
						feedImps++
						reach[uid] = true
					}
				}
			}
		}
		m := merged[camp]
		if feedImps != m.Impressions {
			res.violate("billing", "campaign %s: ledger bills %d impressions but user feeds hold %d",
				camp, m.Impressions, feedImps)
		}
		if len(reach) != m.Reach {
			res.violate("billing", "campaign %s: ledger reach %d but feeds span %d distinct users",
				camp, m.Reach, len(reach))
		}
		rep, err := h.clu.Report(ctx, h.advertiser, camp)
		if err != nil {
			res.violate("billing", "campaign %s: cluster report: %v", camp, err)
			continue
		}
		want := billing.MakeReport(camp, m.Impressions, m.Reach, m.Spend, billing.ReachReportThreshold)
		if rep != want {
			res.violate("billing", "campaign %s: cluster reports %+v, merged shard totals derive %+v",
				camp, rep, want)
		}
	}

	// Convergence: replicated advertiser state must be identical on
	// every slot after recovery.
	base := h.slots[0].owner().Journaled.State()
	for si, g := range h.slots[1:] {
		st := g.owner().Journaled.State()
		if !equalStrings(st.Advertisers, base.Advertisers) {
			res.violate("convergence", "slot %d advertiser set %v != slot 0's %v", si+1, st.Advertisers, base.Advertisers)
		}
		if st.NextCamp != base.NextCamp {
			res.violate("convergence", "slot %d campaign counter %d != slot 0's %d", si+1, st.NextCamp, base.NextCamp)
		}
		if !equalOwners(st.Owner, base.Owner) {
			res.violate("convergence", "slot %d campaign ownership diverged from slot 0", si+1)
		}
	}

	h.verifyReplication(res)
	h.verifyMembership(res)
}

// verifyReplication proves every follower is a live, byte-identical
// replica of its slot's owner after healing: in follow mode, synced, its
// ship cursor exactly on the owner's last journaled LSN, and its full
// state marshalling byte-identically to the owner's. Together with the
// durability invariant this pins the failover guarantee — any follower
// could be promoted right now without losing an acknowledged write.
func (h *harness) verifyReplication(res *Result) {
	for si, g := range h.slots {
		own := g.owner().Journaled
		ownBytes, err := stateBytes(own.State())
		if err != nil {
			res.violate("replication", "slot %d: marshalling owner state: %v", si, err)
			continue
		}
		for j, fn := range g.followers() {
			jp := fn.Journaled
			st, _ := jp.FollowStatus() // in-process: cannot fail
			if !st.Synced {
				res.violate("replication", "slot %d follower %d: following=%v synced=%v after heal",
					si, j+1, st.Following, st.Synced)
				continue
			}
			if st.ShipLSN != own.LastLSN() {
				res.violate("replication", "slot %d follower %d: ship cursor %d, owner journal at %d",
					si, j+1, st.ShipLSN, own.LastLSN())
			}
			fb, err := stateBytes(jp.State())
			if err != nil {
				res.violate("replication", "slot %d follower %d: marshalling state: %v", si, j+1, err)
				continue
			}
			if !bytes.Equal(ownBytes, fb) {
				res.violate("replication", "slot %d follower %d: state differs from owner (%d vs %d bytes)",
					si, j+1, len(fb), len(ownBytes))
			}
		}
	}
}

// verifyMembership proves user placement matches the final ring exactly:
// every seeded user lives on the slot the current ring assigns it and on
// no other (a pending source removal or a botched cutover would leave a
// user on two slots and double-count every aggregate). It also derives
// the run's placement fingerprint — ring version plus a hash of every
// user's owning slot — which is a pure function of the membership
// changes, so a faulted run must fingerprint identically to a fault-free
// run of the same seed.
func (h *harness) verifyMembership(res *Result) {
	hash := fnv.New64a()
	for _, uid := range h.users {
		owner := h.clu.Owner(uid)
		for si, g := range h.slots {
			has := g.owner().Journaled.User(uid) != nil
			if has && si != owner {
				res.violate("membership", "user %s lives on slot %d but the ring assigns it to slot %d", uid, si, owner)
			}
			if !has && si == owner {
				res.violate("membership", "user %s is missing from its owning slot %d", uid, owner)
			}
		}
		fmt.Fprintf(hash, "%s=%d\n", uid, owner)
	}
	res.RingVersion = h.clu.Version()
	res.PlacementHash = hash.Sum64()
}

// probeReplication performs one live replicated mutation against the
// recovered cluster. The cluster's replication layer compares every
// shard's answer and fails on divergence, so a clean create here is an
// end-to-end proof the shards are still in lockstep — it runs last
// because it mutates state the byte-identity check already covered.
func (h *harness) probeReplication(res *Result) {
	if res.Failed() {
		// Don't stack a confusing probe failure on top of real
		// violations; the cluster may legitimately refuse.
		return
	}
	if _, err := h.clu.CreateCampaign(h.advertiser, chaosCampaign("post-chaos-probe")); err != nil {
		res.violate("convergence", "replicated mutation against recovered cluster: %v", err)
	}
}

// coverage fails the run if a configured fault kind never reached its
// injection point (a refactor silently bypassing a seam must not turn
// the whole harness into a vacuous pass), or never fired despite enough
// opportunities that silence is statistically implausible.
func (h *harness) coverage(res *Result) {
	for kind, p := range h.enabledKinds() {
		opp := res.Opportunities[kind]
		fired := res.Faults[kind]
		if opp == 0 {
			res.violate("coverage", "fault %s configured at p=%.3g but its injection point was never reached — dead seam", kind, p)
			continue
		}
		// Expected fires ≥ 10 and none happened: P < e^-10.
		if fired == 0 && p*float64(opp) >= 10 {
			res.violate("coverage", "fault %s had %d opportunities at p=%.3g and never fired", kind, opp, p)
		}
	}
	if res.Crashes == 0 {
		res.violate("coverage", "no shard crash was exercised")
	}
	if h.cfg.Replicas > 0 && res.OwnerKills == 0 {
		res.violate("coverage", "replica mode never killed an owner mid-round — failover seam is dead")
	}
	if h.cfg.Reshard && res.Reshards == 0 {
		res.violate("coverage", "reshard mode never grew the membership")
	}
	if h.cfg.Net != nil {
		if res.Partitions == 0 {
			res.violate("coverage", "networked run injected no partition")
		} else if res.Faults[faults.NetPartition] == 0 {
			res.violate("coverage", "partitioned shard never refused a request — partition seam is dead")
		}
	}
}

// enabledKinds maps each configured fault kind to its probability.
func (h *harness) enabledKinds() map[faults.Kind]float64 {
	m := make(map[faults.Kind]float64)
	add := func(k faults.Kind, p float64) {
		if p > 0 {
			m[k] = p
		}
	}
	add(faults.FSShortWrite, h.cfg.Disk.ShortWrite)
	add(faults.FSWriteError, h.cfg.Disk.WriteError)
	add(faults.FSSyncError, h.cfg.Disk.SyncError)
	add(faults.FSRenameError, h.cfg.Disk.RenameError)
	if nc := h.cfg.Net; nc != nil {
		add(faults.NetDialError, nc.DialError)
		add(faults.NetDelay, nc.Delay)
		add(faults.NetDuplicate, nc.Duplicate)
		add(faults.NetResetBody, nc.ResetBody)
	}
	return m
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalOwners(a, b []platform.CampaignOwner) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
