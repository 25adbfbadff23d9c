package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
)

// Shard is one member of a ring slot (a slot is a ReplicaSet of them), as
// the coordinator drives it: the operation set a shard serves over RPC,
// control surface (platform.Member) and health included, plus what a
// member behind an RPC client offers — a dialable address, an explicit
// health probe that feeds its circuit breaker, the membership gate's ring
// push, the rearm call that tells an owner whom to ship to, the dump of
// its process's trace spans, and Close. The attribute catalog is not on
// it: the Cluster answers catalog reads from its own copy. *RemoteShard
// satisfies it, over TCP or an rpc.MemNet (NewServed), and so does any
// struct that embeds one. A member without a journal refuses the control
// surface with platform.ErrNoJournal (on the wire, a 422), so it cannot
// take part in a reshard or a replica chain.
type Shard interface {
	rpc.Backend
	Addr() string
	Probe(context.Context) error
	PushRing(context.Context, rpc.RingInfo) error
	Rearm(ctx context.Context, followers []string) error
	TraceSpans(context.Context) ([]trace.SpanWire, error)
	Close() error
}

// Options tunes a cluster.
type Options struct {
	// Workers bounds concurrent per-shard calls during scatter-gather
	// reads; <= 0 selects min(GOMAXPROCS, shards).
	Workers int
	// Registry receives the coordinator's metrics (per-shard routing
	// counts, replication counters, scatter-gather latency, reshard and
	// replica-chain families). Nil leaves the cluster instrumented against
	// unregistered metrics.
	Registry *obs.Registry
}

// Cluster coordinates N platform shards behind the httpapi.Backend
// surface. User-scoped calls take only the owning shard's locks, so a
// cluster uses as many cores as it has shards; the coordinator itself
// serializes nothing on those paths.
//
// Membership is elastic: AddSet and RemoveShard migrate user ranges live
// (see elastic.go for the snapshot + tail + fence protocol), so what the
// coordinator routes by is a value it swaps, not fields it updates.
type Cluster struct {
	workers int
	m       *clusterMetrics
	// catalog returns the attribute catalog the cluster answers catalog
	// reads from: the compiled-in one, built on first use, or the one
	// NewInMemory's config names. No shard is asked.
	catalog func() *attr.Catalog

	// mem is the current membership. A membership is never mutated once
	// stored: a call loads the pointer once and routes, gathers or reports
	// from that value for the rest of its life; install is the only writer.
	mem   atomic.Pointer[membership]
	memMu sync.Mutex // orders install calls; no reader takes it

	// repMu serializes replicated advertiser mutations so every shard
	// applies them in the same order — that order equality is what keeps
	// the deterministic per-shard ID counters (camp-/aud-/px-) in sync
	// across the cluster. The reshard driver holds it end to end so a
	// joining shard's advertiser skeleton cannot go stale mid-migration,
	// and so do the other membership-level operations (failover, heal,
	// resume), which therefore never interleave with a reshard or each
	// other. User-scoped traffic never touches it.
	repMu sync.Mutex

	// wmu is the reshard write fence. User-scoped mutations hold it
	// read-side; the reshard driver takes it write-side for the short
	// cutover window (delta copy + membership flip + source removal) so no
	// write can land on a source shard after its state was re-exported.
	// Aggregate gathers also hold it read-side, which keeps them from ever
	// observing a user on two shards at once.
	wmu sync.RWMutex

	// migActive flags that a reshard is collecting its dirty set; while
	// set, every fenced write records its user so the cutover can re-copy
	// exactly the state that changed after the bulk pass.
	migActive atomic.Bool
	dirtyMu   sync.Mutex
	dirty     map[profile.UserID]struct{}

	// srcMu guards the membership source used to recover from stale-ring
	// refusals.
	srcMu sync.Mutex
	src   MembershipSource
}

// membership is one value of what the coordinator routes by: the slots in
// ring order, the ring and geometry they were placed with, the version that
// names the whole, and the bookkeeping of the change that produced it.
type membership struct {
	slots   []*ReplicaSet
	ring    *Ring
	version uint64
	vnodes  int
	// ops[i] is slot i's routed-ops counter, resolved when the value is
	// built so the routing path does a slice load and an atomic add.
	ops []*obs.Counter
	// pending holds post-cutover source removals that failed; aggregates
	// refuse while it is non-empty, because a user present on both its old
	// and new shard would double-count. ResumeReshard drains it.
	pending     []pendingRemoval
	lastReshard ReshardReport
}

// install is the one place the membership changes: change receives the
// current value and returns the next one, or false to leave things as they
// are. It returns the value in force afterwards.
func (c *Cluster) install(change func(membership) (membership, bool)) *membership {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	cur := c.mem.Load()
	next, ok := change(*cur)
	if !ok {
		return cur
	}
	if len(next.ops) != len(next.slots) {
		next.ops = c.m.shardOps(len(next.slots))
	}
	c.mem.Store(&next)
	return &next
}

var _ httpapi.Backend = (*Cluster)(nil)

// New assembles a cluster of unreplicated slots, one per pre-built shard.
func New(shards []Shard, opts Options) (*Cluster, error) {
	sets := make([]*ReplicaSet, len(shards))
	for i, s := range shards {
		sets[i] = NewReplicaSet(s)
	}
	return NewFromSets(sets, opts)
}

// NewFromSets assembles a cluster over pre-built slots. The slots must agree
// on advertiser-side state (fresh shards, or shards recovered from
// per-shard journals that were only ever driven through a cluster) and use
// the compiled-in catalog, which the cluster answers catalog reads from.
func NewFromSets(shards []*ReplicaSet, opts Options) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(shards))
	c := &Cluster{workers: workers, m: newClusterMetrics(opts.Registry), catalog: sync.OnceValue(attr.DefaultCatalog)}
	c.mem.Store(&membership{
		slots:   slices.Clone(shards),
		ring:    NewRing(len(shards), DefaultVirtualNodes),
		version: 1,
		vnodes:  DefaultVirtualNodes,
		ops:     c.m.shardOps(len(shards)),
	})
	for _, rs := range shards {
		rs.bindMetrics(&c.m.replica)
	}
	return c, nil
}

// NewInMemory serves an n-shard cluster of fresh in-memory platforms
// (NewServed). Shard i is seeded with stats.SubSeed(cfg.Seed, i), so shard
// 0 of a 1-shard cluster draws the exact auction randomness the bare
// platform would — the equivalence the cluster tests pin down.
func NewInMemory(n int, cfg platform.Config, opts Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", n)
	}
	members := make([]*platform.Platform, n)
	for i := range members {
		shardCfg := cfg
		shardCfg.Seed = stats.SubSeed(cfg.Seed, uint64(i))
		members[i] = platform.New(shardCfg)
	}
	c, err := NewServed(members, opts)
	if err == nil && cfg.Catalog != nil {
		c.catalog = func() *attr.Catalog { return cfg.Catalog }
	}
	return c, err
}

// NewServed assembles a cluster of unreplicated slots over members this
// process holds, the way a router assembles one over shard nodes: each
// member is served by a shard RPC server on an in-memory listener and
// reached through a RemoteShard. Closing the cluster stops the servers and
// clients and closes the members.
func NewServed(members []*platform.Platform, opts Options) (*Cluster, error) {
	mn := rpc.NewMemNet()
	tr := mn.Transport()
	shards := make([]Shard, len(members))
	for i, m := range members {
		ln, err := mn.Listen("")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: rpc.NewServer(m, "", nil)}
		go hs.Serve(ln)
		// A member in process is slow, never lost: the deadline bounds a hang.
		cl := rpc.NewClient("http://"+ln.Addr().String(), rpc.Options{Transport: tr, CallTimeout: time.Minute})
		shards[i] = servedShard{RemoteShard: NewRemoteShard(cl), hs: hs, member: m}
	}
	return New(shards, opts)
}

// servedShard is a member NewServed serves: the RemoteShard the
// coordinator drives, and what closing it must stop besides the client.
type servedShard struct {
	*RemoteShard
	hs     *http.Server
	member *platform.Platform
}

// Healthy adds the member's own verdict to the client's breaker: a process
// sees the journal of a member it serves fail at once, with no probe.
func (s servedShard) Healthy() bool { return s.RemoteShard.Healthy() && s.member.Healthy() }

func (s servedShard) Close() error {
	s.RemoteShard.Close()
	s.hs.Close()
	return s.member.Close()
}

// Shards returns the current number of shards.
func (c *Cluster) Shards() int { return len(c.mem.Load().slots) }

// Version returns the membership version; it starts at 1 and increments on
// every completed AddSet, RemoveShard, promotion or membership refresh.
func (c *Cluster) Version() uint64 { return c.mem.Load().version }

// Owner returns the shard index owning a user under the current ring.
func (c *Cluster) Owner(uid profile.UserID) int { return c.mem.Load().ring.Owner(string(uid)) }

// ownerShard resolves the user's slot and the member of it that serves a
// call of the given scope — the owner for a write, the slot's reader
// otherwise — or an ErrShardUnavailable error when no member can. User
// state lives on exactly one slot, so there is no other slot to route to.
func (c *Cluster) ownerShard(uid profile.UserID, scope rpc.Scope) (int, Shard, error) {
	m := c.mem.Load()
	i := m.ring.Owner(string(uid))
	slot := m.slots[i]
	var s Shard
	var err error
	switch {
	case scope == rpc.UserWrite:
		s, err = slot.writer()
	case slot.Healthy():
		s = slot.reader()
	default:
		err = ErrShardUnavailable
	}
	if err != nil {
		return i, nil, fmt.Errorf("cluster: user %q: shard %d: %w", uid, i, err)
	}
	m.ops[i].Inc()
	return i, s, nil
}

// route runs a user-scoped op on the user's slot as the op's scope — its
// row in rpc's op table — demands. A write runs on the slot's owner under
// the reshard write fence: it holds the fence read-side so a cutover cannot
// start mid-write, and records the user as dirty while a reshard's bulk
// copy is running so the cutover re-copies exactly what changed. A read
// runs on the slot's reader. Either is re-routed exactly once, after a
// membership refresh, when the shard answers that the router's ring is
// stale (rpc.ErrStaleRing).
func route[T any](c *Cluster, scope rpc.Scope, uid profile.UserID, fn func(Shard) (T, error)) (T, error) {
	v, _, err := routeSlot(c, scope, uid, fn)
	return v, err
}

// routeSlot is route that also names the slot the op was last routed to.
func routeSlot[T any](c *Cluster, scope rpc.Scope, uid profile.UserID, fn func(Shard) (T, error)) (T, int, error) {
	if scope == rpc.UserWrite {
		c.wmu.RLock()
		defer c.wmu.RUnlock()
		c.noteWrite(uid)
	}
	var zero T
	slot, s, err := c.ownerShard(uid, scope)
	if err != nil {
		return zero, slot, err
	}
	v, err := fn(s)
	if err == nil || !errors.Is(err, rpc.ErrStaleRing) {
		return v, slot, err
	}
	// The shard consulted its membership gate and refused: our ring is
	// behind the cluster's. The op was not applied, so refresh and re-route
	// once; a second refusal is surfaced (membership is churning faster
	// than we can follow, and retry loops would hide that). A failed refresh
	// keeps the refusal in the chain: it is what tells a front end to answer
	// 503, not the route's refusal code.
	if rerr := c.RefreshMembership(); rerr != nil {
		return zero, slot, fmt.Errorf("cluster: refreshing membership after stale-ring refusal: %w (refusal: %w)", rerr, err)
	}
	slot, s, err = c.ownerShard(uid, scope)
	if err != nil {
		return zero, slot, err
	}
	v, err = fn(s)
	return v, slot, err
}

// noteWrite records a user as dirty while a reshard is collecting deltas.
func (c *Cluster) noteWrite(uid profile.UserID) {
	if !c.migActive.Load() {
		return
	}
	c.dirtyMu.Lock()
	if c.dirty == nil {
		c.dirty = make(map[profile.UserID]struct{})
	}
	c.dirty[uid] = struct{}{}
	c.dirtyMu.Unlock()
}

// --- user-scoped operations: route to the owning shard ---

// AddUser inserts the profile into its owning shard.
func (c *Cluster) AddUser(pr *profile.Profile) error {
	_, err := route(c, rpc.OpAddUser.Scope, pr.ID, func(s Shard) (struct{}, error) {
		return struct{}{}, s.AddUser(pr)
	})
	return err
}

// User returns the user's profile from the owning shard (nil when the
// shard is unavailable — the same answer an unknown user gets).
func (c *Cluster) User(uid profile.UserID) *profile.Profile {
	p, _ := route(c, rpc.OpUser.Scope, uid, func(s Shard) (*profile.Profile, error) {
		return s.User(uid), nil
	})
	return p
}

// BrowseFeed runs a feed session on the user's shard.
func (c *Cluster) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	return c.BrowseFeedCtx(context.Background(), uid, slots)
}

// BrowseFeedCtx is BrowseFeed under the request context: sampled
// requests get a routing span naming the owning shard, and the shard
// call carries the context onward.
func (c *Cluster) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	ctx, sp := trace.StartChild(ctx, "cluster.route")
	imps, slot, err := routeSlot(c, rpc.OpBrowse.Scope, uid, func(s Shard) ([]ad.Impression, error) {
		return s.BrowseFeedCtx(ctx, uid, slots)
	})
	if sp != nil {
		sp.Annotate("op", "browse")
		sp.Annotate("shard", strconv.Itoa(slot))
		sp.SetError(err)
		sp.Finish()
	}
	return imps, err
}

// FeedCtx returns the user's full feed from the owning shard; an unknown
// user and an unavailable shard are different errors.
func (c *Cluster) FeedCtx(ctx context.Context, uid profile.UserID) ([]ad.Impression, error) {
	return route(c, rpc.OpFeed.Scope, uid, func(s Shard) ([]ad.Impression, error) {
		return s.FeedCtx(ctx, uid)
	})
}

// Feed is FeedCtx for in-process callers that read a feed they know
// exists: any failure is an empty feed.
func (c *Cluster) Feed(uid profile.UserID) []ad.Impression {
	imps, _ := c.FeedCtx(context.Background(), uid)
	return imps
}

// VisitPage records a pixel fire on the user's shard. Pixels are
// replicated, so the shard resolves the pixel locally.
func (c *Cluster) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	_, err := route(c, rpc.OpVisit.Scope, uid, func(s Shard) (struct{}, error) {
		return struct{}{}, s.VisitPage(uid, px)
	})
	return err
}

// LikePage records a page like on the user's shard.
func (c *Cluster) LikePage(uid profile.UserID, pageID string) error {
	_, err := route(c, rpc.OpLike.Scope, uid, func(s Shard) (struct{}, error) {
		return struct{}{}, s.LikePage(uid, pageID)
	})
	return err
}

// AdPreferences returns the transparency-page attributes from the user's
// shard.
func (c *Cluster) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	return route(c, rpc.OpAdPreferences.Scope, uid, func(s Shard) ([]attr.ID, error) {
		return s.AdPreferences(uid)
	})
}

// AdvertisersTargetingMe answers from the user's shard; campaigns and
// audiences are replicated, and the user's custom-data memberships live
// where the user lives.
func (c *Cluster) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	return route(c, rpc.OpAdvertisers.Scope, uid, func(s Shard) ([]string, error) {
		return s.AdvertisersTargetingMe(uid)
	})
}

// ExplainImpression generates the "why am I seeing this?" text on the
// user's shard.
func (c *Cluster) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	return route(c, rpc.OpExplain.Scope, uid, func(s Shard) (explain.Explanation, error) {
		return s.ExplainImpression(uid, imp)
	})
}

// --- advertiser-scoped mutations: replicate to every shard ---

// replicate applies op to every slot's owner, all at once — a mutation costs
// the slowest shard's commit, not the sum — under the replication lock, which
// admits one mutation at a time and so keeps one order on every shard, and
// returns shard 0's result. Shards are deterministic state machines fed the
// same mutation sequence, so they must agree; a disagreement means their
// advertiser-side states have drifted and the cluster is unsafe to keep using,
// which is reported as an error naming every shard that disagrees with shard 0
// rather than papered over. (Error texts may differ across shards — only
// refusal vs success and the returned ID must match.)
func replicate[T comparable](c *Cluster, opName string, op func(Shard) (T, error)) (T, error) {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	shards := c.mem.Load().slots
	// Advertiser mutations reach this point without a request context
	// (the Shard interface predates ctx on these ops), so replication
	// shows up as its own root trace: one span covering the whole
	// all-shards fan-out, error-tagged on divergence.
	_, sp := trace.Default.StartRoot(context.Background(), "cluster.replicate")
	if sp != nil {
		sp.Annotate("op", opName)
		sp.Annotate("shards", strconv.Itoa(len(shards)))
		defer sp.Finish()
	}
	// A shard whose transport is down cannot apply the mutation; applying
	// it to the others anyway would fork the replicated advertiser state
	// (the per-shard ID counters would drift). Refuse up front with the
	// typed error so callers can retry the whole mutation once the shard
	// is back. "Down" means the owner is down: followers receive the
	// mutation through journal shipping, not directly.
	owners := make([]Shard, len(shards))
	for i, rs := range shards {
		o, err := rs.writer()
		if err != nil {
			var zero T
			err = fmt.Errorf("cluster: %s: shard %d: %w", opName, i, err)
			sp.SetError(err)
			return zero, err
		}
		owners[i] = o
	}
	c.m.replicatedOps.Inc()
	// Not bounded by c.workers: what overlaps is each owner's wait for its
	// disk, not work for this process's CPUs, and the lock admits one fan-out.
	start := time.Now()
	vals, errs := make([]T, len(owners)), make([]error, len(owners))
	fanOut(len(owners), len(owners), func(i int) { vals[i], errs[i] = op(owners[i]) })
	c.m.replicateSeconds.ObserveSince(start)
	var drifted []string
	var ret0 any = errs[0]
	for i := 1; i < len(owners); i++ {
		switch {
		case (errs[i] == nil) != (errs[0] == nil):
			drifted = append(drifted, fmt.Sprintf("shard %d returned %v", i, errs[i]))
		case errs[i] == nil && vals[i] != vals[0]:
			drifted = append(drifted, fmt.Sprintf("shard %d returned %v", i, vals[i]))
			ret0 = vals[0]
		}
	}
	if drifted != nil {
		c.m.divergence.Inc()
		derr := fmt.Errorf("cluster: %s diverged: %s, shard 0 returned %v", opName, strings.Join(drifted, ", "), ret0)
		sp.SetError(derr)
		return vals[0], derr
	}
	return vals[0], errs[0]
}

// fanOut runs fn(0) … fn(n-1), at most limit at a time, and returns once all
// have; the caller is one of the workers, so an n or limit of one spawns nothing.
func fanOut(n, limit int, fn func(i int)) {
	workers := min(n, limit)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// RegisterAdvertiser creates the advertiser account on every shard.
func (c *Cluster) RegisterAdvertiser(name string) error {
	_, err := replicate(c, "RegisterAdvertiser", func(s Shard) (struct{}, error) {
		return struct{}{}, s.RegisterAdvertiser(name)
	})
	return err
}

// CreateCampaign registers the campaign on every shard; all shards mint the
// same campaign ID.
func (c *Cluster) CreateCampaign(advertiser string, params platform.CampaignParams) (string, error) {
	return replicate(c, "CreateCampaign", func(s Shard) (string, error) {
		return s.CreateCampaign(advertiser, params)
	})
}

// PauseCampaign pauses the campaign on every shard.
func (c *Cluster) PauseCampaign(advertiser, campaignID string) error {
	_, err := replicate(c, "PauseCampaign", func(s Shard) (struct{}, error) {
		return struct{}{}, s.PauseCampaign(advertiser, campaignID)
	})
	return err
}

// CreateAudience builds the custom audience on every shard under one ID.
// Each shard matches a PII list, and derives a lookalike, over its own
// users — the same locality approximation production systems make.
func (c *Cluster) CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error) {
	return replicate(c, "CreateAudience", func(s Shard) (audience.AudienceID, error) {
		return s.CreateAudience(advertiser, d)
	})
}

// IssuePixel issues the tracking pixel on every shard under the same ID,
// so a pixel fire resolves on whichever shard owns the visiting user.
func (c *Cluster) IssuePixel(advertiser string) (pixel.PixelID, error) {
	return replicate(c, "IssuePixel", func(s Shard) (pixel.PixelID, error) {
		return s.IssuePixel(advertiser)
	})
}

// --- catalog reads: answered by the cluster itself ---

// Catalog returns the attribute catalog.
func (c *Cluster) Catalog() *attr.Catalog { return c.catalog() }

// SearchAttributes is the ads-manager keyword search over the catalog.
func (c *Cluster) SearchAttributes(query string) []*attr.Attribute {
	return c.catalog().Search(query)
}

// Users returns every user ID in the cluster. A 1-shard cluster preserves
// the shard's insertion order (matching the bare platform); with more
// shards there is no global insertion order, so IDs come back sorted.
func (c *Cluster) Users() []profile.UserID {
	perShard, _ := gather(context.Background(), c, func(_ context.Context, s Shard) ([]profile.UserID, error) {
		return s.Users(), nil
	})
	if len(perShard) == 1 {
		return perShard[0]
	}
	var all []profile.UserID
	for _, ids := range perShard {
		all = append(all, ids...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// Close closes every member of every slot (a member NewServed serves
// also syncs and closes its platform's journal). The first error wins;
// remaining slots still get closed.
func (c *Cluster) Close() error {
	var firstErr error
	for i, rs := range c.mem.Load().slots {
		if err := rs.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: closing shard %d: %w", i, err)
		}
	}
	return firstErr
}
