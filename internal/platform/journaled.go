package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/trace"
)

// Journaled is the platform's durability layer: a Platform whose every
// mutating operation is recorded to a write-ahead journal before the
// caller gets its answer, so a crash or kill -9 loses nothing that was
// acknowledged. Recovery (OpenJournaled on an existing directory) restores
// the newest snapshot and deterministically replays the journal suffix,
// reconstructing the exact pre-crash state — including the delivery RNG,
// whose state snapshots freeze via Pipeline.RNGState.
//
// Every *attempted* mutation is journaled, including ones the platform
// refuses (duplicate advertiser, rejected creative, unknown user): some
// refusals still mutate state (a rejected creative advances the policy
// enforcer; a failed campaign burns a campaign ID), and since the platform
// is deterministic, replaying the refusal reproduces it exactly. The
// journal is therefore simply "the sequence of calls", with no per-op
// bookkeeping about outcomes.
//
// Read-only operations delegate straight to the wrapped platform and are
// never journaled.
type Journaled struct {
	mu sync.Mutex // serializes mutations so journal order == apply order
	j  *journal.Journal
	// p is the current platform. Migration records and InstallState
	// replace it wholesale under mu while reads (a follower serving the
	// transparency page, a destination mid-reshard) load it without the
	// lock, hence the atomic pointer.
	p atomic.Pointer[Platform]

	// Replication (see journaled_replica.go). shipper, when set, receives
	// every journaled record under mu, in journal order. A following
	// platform refuses direct mutations — its only write path is
	// ApplyShipped — and tracks the owner's LSN sequence in shipSeq.
	shipper func(lsn uint64, payload []byte) error
	follow  bool
	inSync  bool
	shipSeq uint64
}

// OpenJournaled opens (or creates) a journaled platform backed by the
// write-ahead journal in dir. On a fresh directory, boot() supplies the
// initial platform, which is immediately snapshotted so recovery never
// needs to re-run boot. On an existing directory boot is not called: the
// pre-crash platform is recovered from the newest snapshot plus replay of
// the journal suffix.
func OpenJournaled(dir string, opts journal.Options, boot func() (*Platform, error)) (*Journaled, error) {
	j, err := journal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	snap, snapLSN, err := j.Snapshot()
	if err != nil {
		j.Close()
		return nil, err
	}
	if snap == nil {
		if j.LastLSN() != 0 {
			j.Close()
			return nil, fmt.Errorf("platform: journal %s has records but no snapshot", dir)
		}
		p, err := boot()
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("platform: booting journaled platform: %w", err)
		}
		jp := &Journaled{j: j}
		jp.p.Store(p)
		if _, err := jp.Compact(); err != nil {
			j.Close()
			return nil, fmt.Errorf("platform: writing boot snapshot: %w", err)
		}
		return jp, nil
	}
	state, err := ReadSnapshot(snap)
	snap.Close()
	if err != nil {
		j.Close()
		return nil, err
	}
	p, err := Restore(state)
	if err != nil {
		j.Close()
		return nil, fmt.Errorf("platform: restoring journal snapshot: %w", err)
	}
	err = j.Replay(snapLSN, func(lsn uint64, payload []byte) error {
		var rec opRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("platform: journal record %d: %w", lsn, err)
		}
		apply, err := applyRecord(p, lsn, &rec)
		if err != nil {
			return err
		}
		// Migration records replace the platform wholesale; ordinary ops
		// mutate it in place and hand the same pointer back. The original
		// caller already saw the op's result and any refusal.
		p, _, _ = apply(context.Background())
		return nil
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	jp := &Journaled{j: j}
	jp.p.Store(p)
	return jp, nil
}

// Underlying returns the wrapped platform for read-only access (catalog,
// ledger ground truth, user listings). Mutating it directly bypasses the
// journal and forfeits crash recovery for those mutations.
func (jp *Journaled) Underlying() *Platform { return jp.p.Load() }

// LastLSN returns the LSN of the most recently journaled operation.
func (jp *Journaled) LastLSN() uint64 { return jp.j.LastLSN() }

// JournalFailed returns the journal's sticky error (wrapping
// journal.ErrFailed) once a write, flush, or fsync has failed, nil while
// the journal is healthy. A shard whose journal has failed refuses all
// further mutations; the operator remedy is restart-and-recover (the
// chaos harness does exactly that, and the runbook in docs/OPERATIONS.md
// documents the production equivalent).
func (jp *Journaled) JournalFailed() error { return jp.j.Failed() }

// HealthReporter is implemented by members that know their own liveness: a
// Journaled reports its journal's sticky failure, the cluster's RemoteShard
// its peer's circuit breaker. The cluster's health gate and the shard RPC
// server's health endpoint both consult it; a member that does not
// implement it (an in-memory Platform) is always healthy.
type HealthReporter interface {
	Healthy() bool
}

var _ HealthReporter = (*Journaled)(nil)

// Healthy is false once the journal has failed: a shard that cannot prove
// durability must stop taking writes, and reporting itself unhealthy is
// what turns its refusals into the typed "shard unavailable" a router
// answers 503 and a failover supervisor promotes away from.
func (jp *Journaled) Healthy() bool { return jp.JournalFailed() == nil }

// Close syncs and closes the journal. The wrapped platform remains usable
// in memory, but further mutations through the Journaled fail.
func (jp *Journaled) Close() error { return jp.j.Close() }

// State is Platform.State taken under the op lock, so no mutation is
// half-applied in it.
func (jp *Journaled) State() State {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.stateLocked()
}

func (jp *Journaled) stateLocked() State { return jp.p.Load().State() }

// Compact durably snapshots the current state and prunes the journal to
// what the snapshot does not cover. It returns the LSN the snapshot
// covers. Mutations are blocked for the duration; with the default JSON
// state encoding this is the platform's stop-the-world checkpoint. The
// document is encoded from the live platform, not from a copy of its State.
func (jp *Journaled) Compact() (uint64, error) {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	return jp.writeSnapshot(jp.p.Load().writeLiveState)
}

// writeSnapshot streams what write writes into the journal's snapshot
// channel as the state through the last journaled LSN, which it returns.
// The caller holds jp.mu.
func (jp *Journaled) writeSnapshot(write func(io.Writer) error) (uint64, error) {
	if err := jp.j.Sync(); err != nil {
		return 0, err
	}
	lsn := jp.j.LastLSN()
	return lsn, jp.j.WriteSnapshot(lsn, write)
}

// commit is the one write path of a journaled platform. Every mutation — a
// live call on the owner, or a record the owner shipped to this follower —
// runs the same sequence under the op lock, so journal order always equals
// application order (which is what makes replay deterministic):
//
//   - prepare: applyRecord decodes and validates rec against the current
//     platform and, for migration records, builds the replacement. Nothing
//     is mutated, so a refused record leaves no trace in journal or state.
//   - append: the record's bytes go into the journal's buffer.
//   - apply: the prepared step mutates the platform in place or hands back
//     its replacement, which is published here (the only other store is
//     InstallState's wholesale replacement).
//   - ship: an owner forwards the LSN and exact bytes to its followers; a
//     follower advances its owner-LSN cursor instead.
//
// It then waits, outside the lock, until the record is durable; concurrent
// operations' waits coalesce into shared group-commit fsyncs. A sampled
// request gets a journal.append span recording the LSN and three events —
// op_lock_acquired, group_commit_wait, durable — that split its time into
// op-lock wait, prepare+apply under the lock, and the durability wait; an
// unsampled one pays nothing. The returned error is either a commit failure
// (nothing acknowledged) or the platform's own refusal of the op, which is
// journaled like any other call.
func (jp *Journaled) commit(ctx context.Context, rec *opRecord) (opResult, error) {
	_, sp := trace.StartChild(ctx, "journal.append")
	if sp != nil {
		sp.Annotate("op", rec.Op)
		defer sp.Finish()
	}
	fail := func(err error) (opResult, error) {
		sp.SetError(err)
		return opResult{}, err
	}
	shipped := rec.ship != nil
	var payload []byte
	if shipped {
		payload = rec.ship.payload
	} else {
		var err error
		if payload, err = json.Marshal(rec); err != nil {
			return fail(fmt.Errorf("platform: encoding journal record: %w", err))
		}
	}

	jp.mu.Lock()
	sp.Event("op_lock_acquired")
	// A follower that cannot take a shipped record is out of sync until
	// the replica driver resyncs it; refusing a live call changes nothing.
	refuse := func(err error) (opResult, error) {
		if shipped {
			jp.inSync = false
		}
		jp.mu.Unlock()
		return fail(err)
	}
	at := jp.j.LastLSN() + 1 // the LSN errors name: the owner's, for a shipped record
	switch {
	case !shipped && jp.follow:
		return refuse(ErrFollowing)
	case shipped && !jp.follow:
		return refuse(errors.New("platform: ApplyShipped on a non-follower"))
	case shipped && !jp.inSync:
		return refuse(ErrNotSynced)
	case shipped && rec.ship.lsn != jp.shipSeq+1:
		return refuse(fmt.Errorf("platform: shipped LSN %d, want %d: %w", rec.ship.lsn, jp.shipSeq+1, ErrNotSynced))
	}
	if shipped {
		at = rec.ship.lsn
		if err := json.Unmarshal(payload, rec); err != nil {
			return refuse(fmt.Errorf("platform: shipped record %d: %w", at, err))
		}
	}
	apply, err := applyRecord(jp.p.Load(), at, rec)
	if err != nil {
		return refuse(err)
	}
	lsn, wait, err := jp.j.AppendBuffered(payload)
	if err != nil {
		// Journal failure is sticky; a follower needs crash-recovery, not
		// just a resync, and its sync flag turning false routes it there.
		return refuse(fmt.Errorf("platform: journaling %s: %w", rec.Op, err))
	}
	next, res, opErr := apply(ctx)
	jp.p.Store(next)
	var shipErr error
	if shipped {
		jp.shipSeq = rec.ship.lsn
	} else if jp.shipper != nil {
		shipErr = jp.shipper(lsn, payload)
	}
	jp.mu.Unlock()

	if sp != nil {
		sp.Annotate("lsn", strconv.FormatUint(lsn, 10))
		sp.Event("group_commit_wait")
	}
	if err := wait(); err != nil {
		return fail(fmt.Errorf("platform: journal sync for %s: %w", rec.Op, err))
	}
	sp.Event("durable")
	if shipErr != nil {
		// The op is journaled and applied locally; only replication is in
		// doubt. Surfacing the error makes the caller treat the op as
		// indeterminate — replay-consistent either way.
		return fail(fmt.Errorf("platform: replicating %s: %w", rec.Op, shipErr))
	}
	if shipped {
		// The owner's caller saw the op's result and any refusal; to the
		// shipper only the commit's own outcome matters.
		return opResult{}, nil
	}
	return res, opErr
}

// --- journaled mutations (the advertiser and user write surfaces) ---
//
// Each is a record constructor: what the call does is applyRecord's case
// for its op, the same code recovery replays and followers apply.

// AddUser journals and inserts a user profile.
func (jp *Journaled) AddUser(pr *profile.Profile) error {
	st := pr.Snapshot()
	_, err := jp.commit(context.Background(), &opRecord{Op: opAddUser, Profile: &st, profile: pr})
	return err
}

// RegisterAdvertiser journals and creates an advertiser account.
func (jp *Journaled) RegisterAdvertiser(name string) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opRegisterAdvertiser, Name: name})
	return err
}

// CreateCampaign journals and registers a campaign.
func (jp *Journaled) CreateCampaign(advertiser string, params CampaignParams) (string, error) {
	ps := campaignParamsToState(params)
	res, err := jp.commit(context.Background(), &opRecord{Op: opCreateCampaign, Advertiser: advertiser, Params: &ps, params: &params})
	return res.id, err
}

// PauseCampaign journals and pauses a campaign.
func (jp *Journaled) PauseCampaign(advertiser, campaignID string) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opPauseCampaign, Advertiser: advertiser, Campaign: campaignID})
	return err
}

// CreatePIIAudience journals and uploads a customer-list audience.
func (jp *Journaled) CreatePIIAudience(advertiser, name string, keys []pii.MatchKey) (audience.AudienceID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opPIIAudience, Advertiser: advertiser, Name: name, Keys: keys})
	return audience.AudienceID(res.id), err
}

// CreateWebsiteAudience journals and builds a pixel-backed audience.
func (jp *Journaled) CreateWebsiteAudience(advertiser, name string, px pixel.PixelID) (audience.AudienceID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opWebsiteAudience, Advertiser: advertiser, Name: name, Pixel: string(px)})
	return audience.AudienceID(res.id), err
}

// CreateAffinityAudience journals and builds a keyword audience.
func (jp *Journaled) CreateAffinityAudience(advertiser, name string, phrases []string) (audience.AudienceID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opAffinityAudience, Advertiser: advertiser, Name: name, Phrases: phrases})
	return audience.AudienceID(res.id), err
}

// CreateLookalikeAudience journals and derives a similarity audience.
func (jp *Journaled) CreateLookalikeAudience(advertiser, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opLookalikeAudience, Advertiser: advertiser, Name: name, Seed: string(seed), Overlap: overlap})
	return audience.AudienceID(res.id), err
}

// CreateEngagementAudience journals and builds a page-like audience.
func (jp *Journaled) CreateEngagementAudience(advertiser, name, pageID string) (audience.AudienceID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opEngagementAudience, Advertiser: advertiser, Name: name, Page: pageID})
	return audience.AudienceID(res.id), err
}

// IssuePixel journals and issues a tracking pixel.
func (jp *Journaled) IssuePixel(advertiser string) (pixel.PixelID, error) {
	res, err := jp.commit(context.Background(), &opRecord{Op: opIssuePixel, Advertiser: advertiser})
	return pixel.PixelID(res.id), err
}

// BrowseFeed journals and runs a feed session. The journal records only
// the intent (user, slot count); the auctions re-run identically on
// replay because the RNG state is part of every snapshot.
func (jp *Journaled) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	return jp.BrowseFeedCtx(context.Background(), uid, slots)
}

// BrowseFeedCtx is BrowseFeed under the request context, so a sampled
// browse records its journal.append and delivery spans in the caller's
// trace.
func (jp *Journaled) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	res, err := jp.commit(ctx, &opRecord{Op: opBrowse, User: uid, Slots: slots})
	return res.imps, err
}

// VisitPage journals and records a pixel fire.
func (jp *Journaled) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opVisitPage, User: uid, Pixel: string(px)})
	return err
}

// LikePage journals and records a page like.
func (jp *Journaled) LikePage(uid profile.UserID, pageID string) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opLikePage, User: uid, Page: pageID})
	return err
}

// UnlikePage journals and removes a page like.
func (jp *Journaled) UnlikePage(uid profile.UserID, pageID string) error {
	_, err := jp.commit(context.Background(), &opRecord{Op: opUnlikePage, User: uid, Page: pageID})
	return err
}

// --- read-only pass-throughs ---

// Catalog returns the attribute catalog.
func (jp *Journaled) Catalog() *attr.Catalog { return jp.p.Load().Catalog() }

// User returns a user's profile (simulation ground truth).
func (jp *Journaled) User(id profile.UserID) *profile.Profile { return jp.p.Load().User(id) }

// Users returns all user IDs in insertion order.
func (jp *Journaled) Users() []profile.UserID { return jp.p.Load().Users() }

// PotentialReach returns the thresholded reach estimate.
func (jp *Journaled) PotentialReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	return jp.p.Load().PotentialReach(ctx, advertiser, spec)
}

// RawReach returns the exact pre-threshold match count (cluster merges).
func (jp *Journaled) RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	return jp.p.Load().RawReach(ctx, advertiser, spec)
}

// CampaignTotals returns the campaign's exact totals (cluster merges).
func (jp *Journaled) CampaignTotals(ctx context.Context, advertiser, campaignID string) (CampaignTotals, error) {
	return jp.p.Load().CampaignTotals(ctx, advertiser, campaignID)
}

// SearchAttributes searches the catalog.
func (jp *Journaled) SearchAttributes(query string) []*attr.Attribute {
	return jp.p.Load().SearchAttributes(query)
}

// Report returns a campaign's advertiser-visible report.
func (jp *Journaled) Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error) {
	return jp.p.Load().Report(ctx, advertiser, campaignID)
}

// Feed returns every impression the user has been shown.
func (jp *Journaled) Feed(uid profile.UserID) []ad.Impression { return jp.p.Load().Feed(uid) }

// FeedCtx is the feed read of the op set; an unknown user is refused.
func (jp *Journaled) FeedCtx(ctx context.Context, uid profile.UserID) ([]ad.Impression, error) {
	return jp.p.Load().FeedCtx(ctx, uid)
}

// AdPreferences returns the user's transparency-page attributes.
func (jp *Journaled) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	return jp.p.Load().AdPreferences(uid)
}

// AdvertisersTargetingMe returns advertisers targeting the user via
// custom data.
func (jp *Journaled) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	return jp.p.Load().AdvertisersTargetingMe(uid)
}

// ExplainImpression generates "why am I seeing this?" text.
func (jp *Journaled) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	return jp.p.Load().ExplainImpression(uid, imp)
}

// --- journal record encoding ---

// Op names are part of the on-disk format; never renumber or reuse them.
const (
	opAddUser            = "add_user"
	opRegisterAdvertiser = "register_advertiser"
	opCreateCampaign     = "create_campaign"
	opPauseCampaign      = "pause_campaign"
	opPIIAudience        = "pii_audience"
	opWebsiteAudience    = "website_audience"
	opAffinityAudience   = "affinity_audience"
	opLookalikeAudience  = "lookalike_audience"
	opEngagementAudience = "engagement_audience"
	opIssuePixel         = "issue_pixel"
	opBrowse             = "browse"
	opVisitPage          = "visit_page"
	opLikePage           = "like_page"
	opUnlikePage         = "unlike_page"
	opImportUsers        = "import_users"
	opRemoveUsers        = "remove_users"
)

// opRecord is one journaled platform mutation. A single struct with
// omitempty fields keeps the wire format flat and diffable; Op selects
// which fields are meaningful.
type opRecord struct {
	Op         string               `json:"op"`
	Advertiser string               `json:"advertiser,omitempty"`
	Name       string               `json:"name,omitempty"`
	Campaign   string               `json:"campaign,omitempty"`
	User       profile.UserID       `json:"user,omitempty"`
	Pixel      string               `json:"pixel,omitempty"`
	Page       string               `json:"page,omitempty"`
	Slots      int                  `json:"slots,omitempty"`
	Seed       string               `json:"seed,omitempty"`
	Overlap    float64              `json:"overlap,omitempty"`
	Phrases    []string             `json:"phrases,omitempty"`
	Keys       []pii.MatchKey       `json:"keys,omitempty"`
	Profile    *profile.State       `json:"profile,omitempty"`
	Params     *campaignParamsState `json:"params,omitempty"`
	Users      []profile.UserID     `json:"users,omitempty"`
	Chunk      *MigrationChunk      `json:"chunk,omitempty"`

	// What the caller already holds; never serialized. A live AddUser or
	// CreateCampaign carries its decoded argument so applyRecord does not
	// re-decode it from Profile / Params; a record arriving through
	// ApplyShipped carries the owner's LSN and exact bytes so the follower
	// journals what the owner journaled.
	profile *profile.Profile
	params  *CampaignParams
	ship    *shipment
}

// shipment is one record as the owner shipped it.
type shipment struct {
	lsn     uint64
	payload []byte
}

// opResult is what a mutation hands back to its live caller besides the
// error; replay and followers discard it.
type opResult struct {
	id   string          // the campaign, audience or pixel ID the op minted
	imps []ad.Impression // browse
}

// applyFunc is the mutating step of one record, prepared by applyRecord:
// it returns the platform the record leaves behind (p itself for ordinary
// ops, the replacement for migration ops), the op's result, and the
// platform's own refusal of the op, if any.
type applyFunc func(ctx context.Context) (*Platform, opResult, error)

// campaignParamsState is CampaignParams in serializable form; the
// targeting expression travels as its canonical text, exactly like
// delivery.CampaignState.
type campaignParamsState struct {
	Include      []audience.AudienceID `json:"include,omitempty"`
	IncludeAll   []audience.AudienceID `json:"include_all,omitempty"`
	Exclude      []audience.AudienceID `json:"exclude,omitempty"`
	Expr         string                `json:"expr,omitempty"`
	BidCapCPM    money.Micros          `json:"bid_cap_cpm,omitempty"`
	Creative     ad.Creative           `json:"creative"`
	FrequencyCap int                   `json:"frequency_cap,omitempty"`
	Budget       money.Micros          `json:"budget,omitempty"`
}

func campaignParamsToState(p CampaignParams) campaignParamsState {
	s := campaignParamsState{
		Include:      append([]audience.AudienceID(nil), p.Spec.Include...),
		IncludeAll:   append([]audience.AudienceID(nil), p.Spec.IncludeAll...),
		Exclude:      append([]audience.AudienceID(nil), p.Spec.Exclude...),
		BidCapCPM:    p.BidCapCPM,
		Creative:     p.Creative,
		FrequencyCap: p.FrequencyCap,
		Budget:       p.Budget,
	}
	if p.Spec.Expr != nil {
		s.Expr = p.Spec.Expr.String()
	}
	return s
}

func (s *campaignParamsState) toParams() (CampaignParams, error) {
	p := CampaignParams{
		Spec: audience.Spec{
			Include:    s.Include,
			IncludeAll: s.IncludeAll,
			Exclude:    s.Exclude,
		},
		BidCapCPM:    s.BidCapCPM,
		Creative:     s.Creative,
		FrequencyCap: s.FrequencyCap,
		Budget:       s.Budget,
	}
	if s.Expr != "" {
		e, err := attr.Parse(s.Expr)
		if err != nil {
			return CampaignParams{}, fmt.Errorf("platform: journaled campaign expr: %w", err)
		}
		p.Spec.Expr = e
	}
	return p, nil
}

// applyRecord interprets one journaled mutation — it is the only place
// that does, whether the record is being committed live, replayed by
// recovery, or applied on a follower. It works in two steps so the commit
// path can journal between them. The call itself decodes and validates
// rec against p and, for migration ops (import_users, remove_users),
// builds the replacement platform from a transformed snapshot; it never
// mutates p, and only an undecodable record, an unknown op or an invalid
// migration chunk is an error here — state past such a record cannot be
// trusted, and the live path has journaled nothing yet. The returned step
// performs the mutation. Platform-level refusals (duplicate names, unknown
// users, rejected creatives) come back from that step; they replay
// deterministically, so recovery ignores them — the original caller
// already saw them.
func applyRecord(p *Platform, lsn uint64, rec *opRecord) (applyFunc, error) {
	bad := func(err error) (applyFunc, error) {
		return nil, fmt.Errorf("platform: journal record %d: %w", lsn, err)
	}
	swap := func(s State) (applyFunc, error) {
		p2, err := Restore(s)
		if err != nil {
			return bad(err)
		}
		return func(context.Context) (*Platform, opResult, error) { return p2, opResult{}, nil }, nil
	}
	plain := func(op func() error) (applyFunc, error) {
		return func(context.Context) (*Platform, opResult, error) { return p, opResult{}, op() }, nil
	}
	switch rec.Op {
	case opImportUsers:
		if rec.Chunk == nil {
			return bad(errors.New("import_users without chunk"))
		}
		merged, err := MergeChunkState(p.State(), *rec.Chunk)
		if err != nil {
			return bad(err)
		}
		return swap(merged)
	case opRemoveUsers:
		return swap(RemoveUsersState(p.State(), UserSet(rec.Users)))
	case opAddUser:
		pr := rec.profile
		if pr == nil {
			if rec.Profile == nil {
				return bad(errors.New("add_user without profile"))
			}
			var err error
			if pr, err = profile.FromState(*rec.Profile); err != nil {
				return bad(err)
			}
		}
		return plain(func() error { return p.AddUser(pr) })
	case opRegisterAdvertiser:
		return plain(func() error { return p.RegisterAdvertiser(rec.Name) })
	case opCreateCampaign:
		params := rec.params
		if params == nil {
			if rec.Params == nil {
				return bad(errors.New("create_campaign without params"))
			}
			decoded, err := rec.Params.toParams()
			if err != nil {
				return bad(err)
			}
			params = &decoded
		}
		return minted(p, func() (string, error) { return p.CreateCampaign(rec.Advertiser, *params) })
	case opPauseCampaign:
		return plain(func() error { return p.PauseCampaign(rec.Advertiser, rec.Campaign) })
	case opPIIAudience:
		return minted(p, func() (audience.AudienceID, error) {
			return p.CreatePIIAudience(rec.Advertiser, rec.Name, rec.Keys)
		})
	case opWebsiteAudience:
		return minted(p, func() (audience.AudienceID, error) {
			return p.CreateWebsiteAudience(rec.Advertiser, rec.Name, pixel.PixelID(rec.Pixel))
		})
	case opAffinityAudience:
		return minted(p, func() (audience.AudienceID, error) {
			return p.CreateAffinityAudience(rec.Advertiser, rec.Name, rec.Phrases)
		})
	case opLookalikeAudience:
		return minted(p, func() (audience.AudienceID, error) {
			return p.CreateLookalikeAudience(rec.Advertiser, rec.Name, audience.AudienceID(rec.Seed), rec.Overlap)
		})
	case opEngagementAudience:
		return minted(p, func() (audience.AudienceID, error) {
			return p.CreateEngagementAudience(rec.Advertiser, rec.Name, rec.Page)
		})
	case opIssuePixel:
		return minted(p, func() (pixel.PixelID, error) { return p.IssuePixel(rec.Advertiser) })
	case opBrowse:
		return func(ctx context.Context) (*Platform, opResult, error) {
			imps, err := p.BrowseFeedCtx(ctx, rec.User, rec.Slots)
			return p, opResult{imps: imps}, err
		}, nil
	case opVisitPage:
		return plain(func() error { return p.VisitPage(rec.User, pixel.PixelID(rec.Pixel)) })
	case opLikePage:
		return plain(func() error { return p.LikePage(rec.User, rec.Page) })
	case opUnlikePage:
		return plain(func() error { return p.UnlikePage(rec.User, rec.Page) })
	}
	return bad(fmt.Errorf("unknown op %q", rec.Op))
}

// minted is the apply step of an op that mutates p in place and mints an
// ID.
func minted[T ~string](p *Platform, op func() (T, error)) (applyFunc, error) {
	return func(context.Context) (*Platform, opResult, error) {
		id, err := op()
		return p, opResult{id: string(id)}, err
	}, nil
}
