package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/trace"
)

// Journaled is kept only because benchmark/ names it; ROADMAP item 1(b) deletes it.
type Journaled = Platform

// ErrNoJournal is a platform's refusal, without a journal, of every
// operation that needs one: state migration, journal shipping and follow
// mode, and compaction.
var ErrNoJournal = errors.New("platform: no journal: migration, replication and compaction need a journaled platform")

// OpenJournaled opens (or creates) the write-ahead journal in dir and
// returns the platform it records. On a fresh directory, boot() supplies
// the initial platform, which gets the journal and is immediately
// snapshotted so recovery never needs to re-run boot. On an existing
// directory boot is not called: the pre-crash platform is recovered from
// the newest snapshot plus deterministic replay of the journal suffix —
// including the delivery RNG, whose state snapshots freeze via
// Pipeline.RNGState.
//
// Every *attempted* mutation is journaled, including ones the platform
// refuses (duplicate advertiser, rejected creative, unknown user): some
// refusals still mutate state (a rejected creative advances the policy
// enforcer; a failed campaign burns a campaign ID), and since the platform
// is deterministic, replaying the refusal reproduces it exactly. The
// journal is therefore simply "the sequence of calls", with no per-op
// bookkeeping about outcomes. Reads are never journaled.
func OpenJournaled(dir string, opts journal.Options, boot func() (*Platform, error)) (*Platform, error) {
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
		p.j = j
		if _, err := p.Compact(); err != nil {
			j.Close()
			return nil, fmt.Errorf("platform: writing boot snapshot: %w", err)
		}
		return p, nil
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
		apply, err := applyRecord(p.comp.Load(), lsn, &rec)
		if err != nil {
			return err
		}
		// Migration records replace the components wholesale; ordinary ops
		// mutate them in place and hand the same pointer back. The original
		// caller already saw the op's result and any refusal.
		next, _, _ := apply(context.Background())
		p.comp.Store(next)
		return nil
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	p.j = j
	return p, nil
}

// LastLSN returns the LSN of the most recently journaled operation, 0 without a journal.
func (p *Platform) LastLSN() uint64 {
	if p.j == nil {
		return 0
	}
	return p.j.LastLSN()
}

// JournalFailed returns the journal's sticky error (wrapping
// journal.ErrFailed) once a write, flush, or fsync has failed, nil while
// the journal is healthy or there is none. A shard whose journal has
// failed refuses all further mutations; the operator remedy is
// restart-and-recover (the chaos harness does exactly that, and the
// runbook in docs/OPERATIONS.md documents the production equivalent).
func (p *Platform) JournalFailed() error {
	if p.j == nil {
		return nil
	}
	return p.j.Failed()
}

// HealthReporter is implemented by members that know their own liveness: a
// Platform reports its journal's sticky failure, the cluster's RemoteShard
// its peer's circuit breaker. The cluster's health gate and the shard RPC
// server's health endpoint both consult it; a member that does not
// implement it is always healthy.
type HealthReporter interface {
	Healthy() bool
}

// Healthy is false once the journal has failed: a shard that cannot prove
// durability must stop taking writes, and reporting itself unhealthy is
// what turns its refusals into the typed "shard unavailable" a router
// answers 503 and a failover supervisor promotes away from.
func (p *Platform) Healthy() bool { return p.j == nil || p.j.Failed() == nil }

// Close syncs and closes the journal, if there is one. The platform remains
// usable in memory, but further mutations of a journaled platform fail.
func (p *Platform) Close() error {
	if p.j == nil {
		return nil
	}
	return p.j.Close()
}

// State exports the platform's full state (see components.state) under the
// op lock, so no mutation is half-applied in it.
func (p *Platform) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comp.Load().state()
}

// Compact durably snapshots the current state and prunes the journal to
// what the snapshot does not cover. It returns the LSN the snapshot
// covers. Mutations are blocked for the duration; with the default JSON
// state encoding this is the platform's stop-the-world checkpoint. The
// document is encoded from the live platform, not from a copy of its State.
// Without a journal it refuses with ErrNoJournal.
func (p *Platform) Compact() (lsn uint64, err error) {
	err = p.withJournal(func() error {
		lsn, err = p.writeSnapshot(p.comp.Load().writeLiveState)
		return err
	})
	return lsn, err
}

// withJournal runs fn under the op lock, or refuses with ErrNoJournal on a
// platform without a journal.
func (p *Platform) withJournal(fn func() error) error {
	if p.j == nil {
		return ErrNoJournal
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return fn()
}

// writeSnapshot streams what write writes into the journal's snapshot
// channel as the state through the last journaled LSN, which it returns.
// The caller holds p.mu.
func (p *Platform) writeSnapshot(write func(io.Writer) error) (uint64, error) {
	if err := p.j.Sync(); err != nil {
		return 0, err
	}
	lsn := p.j.LastLSN()
	return lsn, p.j.WriteSnapshot(lsn, write)
}

// commit is the one write path. Every mutation — a live call, or a record
// the owner shipped to this follower — runs the same sequence under the op
// lock, so journal order always equals application order (which is what
// makes replay deterministic):
//
//   - prepare: applyRecord decodes and validates rec against the current
//     components and, for migration records, builds the replacement.
//     Nothing is mutated, so a refused record leaves no trace in journal or
//     state.
//   - append: the record's bytes go into the journal's buffer.
//   - apply: the prepared step mutates the components in place or hands
//     back their replacement, which is published here (the only other store
//     is InstallState's wholesale replacement).
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
//
// Without a journal, commit is prepare and apply and nothing else: no op
// lock, no encoding, no append, no span. Each component guards itself, and
// a journal-less platform never swaps its components (every op that would
// refuses with ErrNoJournal before it gets here).
func (p *Platform) commit(ctx context.Context, rec *opRecord) (opResult, error) {
	if p.j == nil {
		apply, err := applyRecord(p.comp.Load(), 0, rec)
		if err != nil {
			return opResult{}, err
		}
		_, res, err := apply(ctx)
		return res, err
	}
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

	p.mu.Lock()
	sp.Event("op_lock_acquired")
	// A follower that cannot take a shipped record is out of sync until
	// the replica driver resyncs it; refusing a live call changes nothing.
	refuse := func(err error) (opResult, error) {
		if shipped {
			p.inSync = false
		}
		p.mu.Unlock()
		return fail(err)
	}
	at := p.j.LastLSN() + 1 // the LSN errors name: the owner's, for a shipped record
	switch {
	case !shipped && p.follow:
		return refuse(ErrFollowing)
	case shipped && !p.follow:
		return refuse(errors.New("platform: ApplyShipped on a non-follower"))
	case shipped && !p.inSync:
		return refuse(ErrNotSynced)
	case shipped && rec.ship.lsn != p.shipSeq+1:
		return refuse(fmt.Errorf("platform: shipped LSN %d, want %d: %w", rec.ship.lsn, p.shipSeq+1, ErrNotSynced))
	}
	if shipped {
		at = rec.ship.lsn
		if err := json.Unmarshal(payload, rec); err != nil {
			return refuse(fmt.Errorf("platform: shipped record %d: %w", at, err))
		}
	}
	apply, err := applyRecord(p.comp.Load(), at, rec)
	if err != nil {
		return refuse(err)
	}
	lsn, wait, err := p.j.AppendBuffered(payload)
	if err != nil {
		// Journal failure is sticky; a follower needs crash-recovery, not
		// just a resync, and its sync flag turning false routes it there.
		return refuse(fmt.Errorf("platform: journaling %s: %w", rec.Op, err))
	}
	next, res, opErr := apply(ctx)
	p.comp.Store(next)
	var shipErr error
	if shipped {
		p.shipSeq = rec.ship.lsn
	} else if p.shipper != nil {
		shipErr = p.shipper(lsn, payload)
	}
	p.mu.Unlock()

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

// audienceOps is the op of each audience kind: five op names, one
// applyRecord case.
var audienceOps = [...]string{
	audience.KindPII:        opPIIAudience,
	audience.KindWebsite:    opWebsiteAudience,
	audience.KindEngagement: opEngagementAudience,
	audience.KindAffinity:   opAffinityAudience,
	audience.KindLookalike:  opLookalikeAudience,
}

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
	// re-decode it from Profile / Params, which only a platform with a
	// journal fills in, to encode them; a record arriving through
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
// it returns the components the record leaves behind (c itself for
// ordinary ops, the replacement for migration ops), the op's result, and
// the platform's own refusal of the op, if any.
type applyFunc func(ctx context.Context) (*components, opResult, error)

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

// applyRecord interprets one mutation record — it is the only place that
// does, whether the record is a live call with or without a journal,
// replayed by recovery, or applied on a follower. It works in two steps so
// the commit path can journal between them. The call itself decodes and
// validates rec against c and, for migration ops (import_users,
// remove_users), builds the replacement components from a transformed
// snapshot; it never mutates c, and only an undecodable record, an unknown
// op or an invalid migration chunk is an error here — state past such a
// record cannot be trusted, and the live path has journaled nothing yet.
// The returned step performs the mutation. Platform-level refusals
// (duplicate names, unknown users, rejected creatives) come back from that
// step; they replay deterministically, so recovery ignores them — the
// original caller already saw them.
func applyRecord(c *components, lsn uint64, rec *opRecord) (applyFunc, error) {
	bad := func(err error) (applyFunc, error) {
		return nil, fmt.Errorf("platform: journal record %d: %w", lsn, err)
	}
	swap := func(s State) (applyFunc, error) {
		p2, err := Restore(s)
		if err != nil {
			return bad(err)
		}
		return func(context.Context) (*components, opResult, error) { return p2.comp.Load(), opResult{}, nil }, nil
	}
	plain := func(op func() error) (applyFunc, error) {
		return func(context.Context) (*components, opResult, error) { return c, opResult{}, op() }, nil
	}
	switch rec.Op {
	case opImportUsers:
		if rec.Chunk == nil {
			return bad(errors.New("import_users without chunk"))
		}
		merged, err := MergeChunkState(c.state(), *rec.Chunk)
		if err != nil {
			return bad(err)
		}
		return swap(merged)
	case opRemoveUsers:
		return swap(RemoveUsersState(c.state(), UserSet(rec.Users)))
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
		return plain(func() error { return c.store.Add(pr) })
	case opRegisterAdvertiser:
		return plain(func() error { return c.registerAdvertiser(rec.Name) })
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
		return minted(c, func() (string, error) { return c.createCampaign(rec.Advertiser, *params) })
	case opPauseCampaign:
		return plain(func() error { return c.pauseCampaign(rec.Advertiser, rec.Campaign) })
	case opPIIAudience, opWebsiteAudience, opEngagementAudience, opAffinityAudience, opLookalikeAudience:
		d := audience.Def{
			Kind: audience.Kind(slices.Index(audienceOps[:], rec.Op)), Name: rec.Name, Keys: rec.Keys,
			Pixel: pixel.PixelID(rec.Pixel), Page: rec.Page, Phrases: rec.Phrases,
			Seed: audience.AudienceID(rec.Seed), Overlap: rec.Overlap,
		}
		return minted(c, func() (audience.AudienceID, error) { return c.createAudience(rec.Advertiser, d) })
	case opIssuePixel:
		return minted(c, func() (pixel.PixelID, error) { return c.issuePixel(rec.Advertiser) })
	case opBrowse:
		return func(ctx context.Context) (*components, opResult, error) {
			imps, err := c.browse(ctx, rec.User, rec.Slots)
			return c, opResult{imps: imps}, err
		}, nil
	case opVisitPage:
		return plain(func() error { return c.visitPage(rec.User, pixel.PixelID(rec.Pixel)) })
	case opLikePage:
		return plain(func() error { return c.likePage(rec.User, rec.Page) })
	case opUnlikePage:
		return plain(func() error { return c.unlikePage(rec.User, rec.Page) })
	}
	return bad(fmt.Errorf("unknown op %q", rec.Op))
}

// minted is the apply step of an op that mutates c in place and mints an
// ID.
func minted[T ~string](c *components, op func() (T, error)) (applyFunc, error) {
	return func(context.Context) (*components, opResult, error) {
		id, err := op()
		return c, opResult{id: string(id)}, err
	}, nil
}
