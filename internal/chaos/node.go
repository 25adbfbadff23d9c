package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// chaosSecret is the shared shard secret the networked harness uses; its
// value is irrelevant (everything runs on loopback), it only exercises the
// auth path.
const chaosSecret = "chaos-secret"

// node is one shard's full lifecycle: its journal directory on the
// fault-injecting filesystem, the currently running journaled platform,
// and — in networked mode — the RPC server in front of it plus the
// coordinator's fault-wrapped client to it.
type node struct {
	idx   int
	dir   string
	ffs   *faults.FaultFS
	jopts journal.Options
	boot  func() (*platform.Platform, error)

	// jp is the running platform. It is replaced on crash/restart, which
	// only ever happens between driver rounds (after every worker has
	// joined), so readers never race the swap.
	jp *platform.Journaled

	// down simulates a process that stopped answering without losing its
	// disk — the mid-round owner-kill the replica-failover scenario needs.
	// The health gate reports the node unavailable while it is set; the
	// round-end sweep crash-recovers the node and clears it.
	down atomic.Bool

	// Networked mode only.
	addr string
	ln   net.Listener
	srv  *http.Server
	tr   *faults.Transport
	cl   *rpc.Client
}

// open boots or recovers the node's platform from its journal directory.
func (n *node) open() error {
	jp, err := platform.OpenJournaled(n.dir, n.jopts, n.boot)
	if err != nil {
		return fmt.Errorf("shard %d: open: %w", n.idx, err)
	}
	n.jp = jp
	return nil
}

// crash kills the node the way a power cut would: the running platform is
// abandoned without Close (a real crash doesn't get to flush), the disk is
// torn back to its durable watermark plus a deterministic slice of the
// unsynced tail, and the platform is recovered from what survived. In
// networked mode the RPC server dies with the process and comes back on
// the same address.
func (n *node) crash(networked bool) error {
	if networked {
		n.stopServe()
	}
	n.jp = nil // abandon: unflushed, unacknowledged appends die with us
	if err := n.ffs.Crash(); err != nil {
		return fmt.Errorf("shard %d: tearing disk: %w", n.idx, err)
	}
	if err := n.open(); err != nil {
		return fmt.Errorf("shard %d: recovery: %w", n.idx, err)
	}
	if networked {
		return n.serve()
	}
	return nil
}

// serve starts (or restarts) the node's RPC server. The first call binds
// an ephemeral loopback port; restarts rebind the same address so the
// coordinator's client keeps working across crashes.
func (n *node) serve() error {
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard %d: listen %s: %w", n.idx, addr, err)
	}
	n.ln = ln
	n.addr = ln.Addr().String()
	n.srv = &http.Server{Handler: rpc.NewServer(n.jp, chaosSecret, nil)}
	go n.srv.Serve(ln)
	return nil
}

func (n *node) stopServe() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// awaitHealthy probes the node through its fault-wrapped client until the
// circuit breaker re-admits calls, so a freshly restarted shard is back in
// rotation before the next round (or the final verification) begins.
func (n *node) awaitHealthy(timeout time.Duration) error {
	if n.cl == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := n.cl.Health(ctx)
		cancel()
		if err == nil && n.cl.Healthy() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard %d: still unhealthy after %v: %v", n.idx, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inprocShard adapts a node to the cluster.Shard interface by delegating
// to whatever platform instance is currently running, so the cluster
// transparently follows the node across crash/restart cycles. Healthy
// surfaces the journal's sticky failure state: a shard that cannot prove
// durability must stop taking writes, and the cluster's health gate turns
// that into the typed ErrShardUnavailable the accounting relies on.
type inprocShard struct{ n *node }

var _ cluster.HealthReporter = (*inprocShard)(nil)

func (s *inprocShard) Healthy() bool { return !s.n.down.Load() && s.n.jp.JournalFailed() == nil }

func (s *inprocShard) AddUser(p *profile.Profile) error            { return s.n.jp.AddUser(p) }
func (s *inprocShard) User(uid profile.UserID) *profile.Profile    { return s.n.jp.User(uid) }
func (s *inprocShard) Users() []profile.UserID                     { return s.n.jp.Users() }
func (s *inprocShard) Feed(uid profile.UserID) []ad.Impression     { return s.n.jp.Feed(uid) }
func (s *inprocShard) LikePage(uid profile.UserID, p string) error { return s.n.jp.LikePage(uid, p) }

func (s *inprocShard) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	return s.n.jp.BrowseFeedCtx(ctx, uid, slots)
}

func (s *inprocShard) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	return s.n.jp.VisitPage(uid, px)
}

func (s *inprocShard) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	return s.n.jp.AdPreferences(uid)
}

func (s *inprocShard) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	return s.n.jp.AdvertisersTargetingMe(uid)
}

func (s *inprocShard) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	return s.n.jp.ExplainImpression(uid, imp)
}

func (s *inprocShard) RegisterAdvertiser(name string) error { return s.n.jp.RegisterAdvertiser(name) }

func (s *inprocShard) CreateCampaign(adv string, params platform.CampaignParams) (string, error) {
	return s.n.jp.CreateCampaign(adv, params)
}

func (s *inprocShard) PauseCampaign(adv, campaignID string) error {
	return s.n.jp.PauseCampaign(adv, campaignID)
}

func (s *inprocShard) CreatePIIAudience(adv, name string, keys []pii.MatchKey) (audience.AudienceID, error) {
	return s.n.jp.CreatePIIAudience(adv, name, keys)
}

func (s *inprocShard) CreateWebsiteAudience(adv, name string, px pixel.PixelID) (audience.AudienceID, error) {
	return s.n.jp.CreateWebsiteAudience(adv, name, px)
}

func (s *inprocShard) CreateEngagementAudience(adv, name, pageID string) (audience.AudienceID, error) {
	return s.n.jp.CreateEngagementAudience(adv, name, pageID)
}

func (s *inprocShard) CreateAffinityAudience(adv, name string, phrases []string) (audience.AudienceID, error) {
	return s.n.jp.CreateAffinityAudience(adv, name, phrases)
}

func (s *inprocShard) CreateLookalikeAudience(adv, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error) {
	return s.n.jp.CreateLookalikeAudience(adv, name, seed, overlap)
}

func (s *inprocShard) IssuePixel(adv string) (pixel.PixelID, error) { return s.n.jp.IssuePixel(adv) }

func (s *inprocShard) RawReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	return s.n.jp.RawReach(ctx, adv, spec)
}

func (s *inprocShard) CampaignTotals(ctx context.Context, adv, campaignID string) (platform.CampaignTotals, error) {
	return s.n.jp.CampaignTotals(ctx, adv, campaignID)
}

func (s *inprocShard) Catalog() *attr.Catalog { return s.n.jp.Catalog() }

func (s *inprocShard) SearchAttributes(q string) []*attr.Attribute {
	return s.n.jp.SearchAttributes(q)
}

// --- control surface: platform.Member plus the in-process extension ---
//
// Forwarding these through the adapter (rather than handing the cluster
// the *platform.Journaled directly) is what lets migration and shipping
// follow the node across crash/restart cycles: the cluster holds one
// stable handle while n.jp is replaced underneath it. The one seam that
// does not survive a swap is the shipper closure, which lives on the jp
// itself — the harness re-arms it (ReplicaSet.Chain) after every
// recovery.

var _ platform.Member = (*inprocShard)(nil)

func (s *inprocShard) ExportUsers(users []profile.UserID) (platform.MigrationChunk, error) {
	return s.n.jp.ExportUsers(users)
}

func (s *inprocShard) ImportUsers(chunk platform.MigrationChunk) error {
	return s.n.jp.ImportUsers(chunk)
}

func (s *inprocShard) RemoveUsers(users []profile.UserID) error { return s.n.jp.RemoveUsers(users) }

func (s *inprocShard) InstallState(st platform.State) error { return s.n.jp.InstallState(st) }

func (s *inprocShard) StateAndLSN(skeleton bool) (platform.State, uint64, error) {
	return s.n.jp.StateAndLSN(skeleton)
}

func (s *inprocShard) ApplyShipped(lsn uint64, payload []byte) error {
	return s.n.jp.ApplyShipped(lsn, payload)
}

func (s *inprocShard) BeginFollow(lsn uint64) error { return s.n.jp.BeginFollow(lsn) }
func (s *inprocShard) EndFollow() error             { return s.n.jp.EndFollow() }

func (s *inprocShard) FollowStatus() (platform.FollowStatus, error) { return s.n.jp.FollowStatus() }

func (s *inprocShard) TailSince(from uint64, fn func(lsn uint64, payload []byte) error) error {
	return s.n.jp.TailSince(from, fn)
}

func (s *inprocShard) SetShipper(fn func(lsn uint64, payload []byte) error) {
	s.n.jp.SetShipper(fn)
}

func (s *inprocShard) Compact() (uint64, error) { return s.n.jp.Compact() }
