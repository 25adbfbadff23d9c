// Package audience implements the platform's audience engine: the machinery
// that turns an advertiser's targeting choices into the set of users an ad
// may be shown to.
//
// Advertisers never see user sets. They create named audiences (from hashed
// PII uploads, tracking-pixel visitors, or page engagement), combine them
// with include/exclude lists and an attribute expression, and get back only
// a rounded "potential reach" estimate. The engine resolves the actual
// membership internally for the delivery pipeline.
package audience

import (
	"fmt"
	"math"
	"sync"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/index"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// AudienceID identifies a stored custom audience.
type AudienceID string

// Kind distinguishes how a custom audience was built.
type Kind int

const (
	// KindPII is a customer-list audience built from hashed PII uploads
	// (Facebook "Custom Audience from a customer list").
	KindPII Kind = iota
	// KindWebsite is a website custom audience: users who fired a
	// tracking pixel.
	KindWebsite
	// KindEngagement is an engagement audience: users who liked a page.
	KindEngagement
	// KindAffinity is a keyword-defined audience (Google's "custom
	// affinity"/"custom intent" audiences, §2.1 of the paper): the
	// advertiser supplies phrases, the platform internally resolves them
	// to matching users. The advertiser never learns the resolution.
	KindAffinity
	// KindLookalike is a similarity audience seeded by another audience
	// (Facebook "Lookalike Audiences"): the platform finds new users
	// resembling the seed. See lookalike.go.
	KindLookalike
)

// kindNames spells each kind, in String and in a state file.
var kindNames = [...]string{KindPII: "pii", KindWebsite: "website", KindEngagement: "engagement", KindAffinity: "affinity", KindLookalike: "lookalike"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Audience is one stored custom audience. Membership is resolved lazily at
// delivery time so that later pixel fires or profile additions are seen.
type Audience struct {
	ID         AudienceID
	Advertiser string
	Kind       Kind
	Name       string

	keys     map[pii.MatchKey]bool // KindPII
	pixel    pixel.PixelID         // KindWebsite
	pageID   string                // KindEngagement
	affinity map[attr.ID]bool      // KindAffinity: resolved attribute set
	phrases  []string              // KindAffinity: the advertiser's input

	// KindLookalike materialized state (see lookalike.go).
	seed        AudienceID
	signature   []attr.ID
	overlap     float64
	seedMembers map[profile.UserID]bool

	// bits is the index-maintained membership bitmap (PII and lookalike
	// audiences only; see indexed.go). Nil when the engine runs scan-only.
	bits *index.Bitmap
}

// Spec is a complete targeting specification for a campaign: optional
// audience include/exclude lists intersected with a targeting expression.
// A nil/empty spec matches everyone (the paper's control ad targets the
// opt-in audience with no additional parameters).
type Spec struct {
	Include []AudienceID // user must be in at least one (if non-empty)
	// IncludeAll is the "narrow audience" feature: the user must be in
	// EVERY listed audience (intersection), on top of Include/Exclude.
	IncludeAll []AudienceID
	Exclude    []AudienceID // user must be in none
	Expr       attr.Expr    // nil means all()
}

// Engine stores audiences and resolves targeting specs against the profile
// store and pixel registry. Engine is safe for concurrent use.
type Engine struct {
	store  *profile.Store
	pixels *pixel.Registry

	mu        sync.RWMutex
	nextID    int
	audiences map[AudienceID]*Audience
	idx       *index.Index // nil until EnableIndex; see indexed.go
}

// NewEngine returns an audience engine over the given store and registry.
func NewEngine(store *profile.Store, pixels *pixel.Registry) *Engine {
	return &Engine{
		store:     store,
		pixels:    pixels,
		audiences: make(map[AudienceID]*Audience),
	}
}

func (e *Engine) newAudience(advertiser string, kind Kind, name string) *Audience {
	e.nextID++
	a := &Audience{
		ID:         AudienceID(fmt.Sprintf("aud-%06d", e.nextID)),
		Advertiser: advertiser,
		Kind:       kind,
		Name:       name,
	}
	e.audiences[a.ID] = a
	return a
}

// Def is one custom audience as an advertiser defines it: its kind, its
// name, and that kind's one argument. Create reads only the argument of
// Kind.
type Def struct {
	Kind    Kind
	Name    string
	Keys    []pii.MatchKey // KindPII
	Pixel   pixel.PixelID  // KindWebsite
	Page    string         // KindEngagement
	Phrases []string       // KindAffinity
	Seed    AudienceID     // KindLookalike
	Overlap float64        // KindLookalike; <= 0 selects DefaultLookalikeOverlap
}

// Validate refuses an unknown kind and a non-finite lookalike overlap (the
// JSON that carries a Def to a shard, a journal or a snapshot has no NaN).
func (d Def) Validate() error {
	if d.Kind < 0 || int(d.Kind) >= len(kindNames) {
		return fmt.Errorf("audience: unknown audience kind %v", d.Kind)
	}
	if d.Kind == KindLookalike && (math.IsNaN(d.Overlap) || math.IsInf(d.Overlap, 0)) {
		return fmt.Errorf("audience: lookalike overlap %v is not a finite number", d.Overlap)
	}
	return nil
}

// Create validates d and builds it: the one place a kind is dispatched to
// its constructor. The catalog resolves an affinity audience's phrases.
func (e *Engine) Create(advertiser string, d Def, catalog *attr.Catalog) (*Audience, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	switch d.Kind {
	case KindPII:
		return e.CreatePIIAudience(advertiser, d.Name, d.Keys), nil
	case KindWebsite:
		return e.CreateWebsiteAudience(advertiser, d.Name, d.Pixel)
	case KindEngagement:
		return e.CreateEngagementAudience(advertiser, d.Name, d.Page), nil
	case KindAffinity:
		return e.CreateAffinityAudience(advertiser, d.Name, d.Phrases, catalog)
	default: // KindLookalike: Validate refused every other kind
		return e.CreateLookalikeAudience(advertiser, d.Name, d.Seed, d.Overlap)
	}
}

// CreatePIIAudience stores a customer-list audience from hashed match keys.
// Matching happens platform-side at resolve time; the advertiser learns
// nothing about which keys matched.
func (e *Engine) CreatePIIAudience(advertiser, name string, keys []pii.MatchKey) *Audience {
	e.mu.Lock()
	a := e.newAudience(advertiser, KindPII, name)
	a.keys = make(map[pii.MatchKey]bool, len(keys))
	for _, k := range keys {
		a.keys[k] = true
	}
	e.mu.Unlock()
	e.seedAudienceBits(a)
	return a
}

// CreateWebsiteAudience stores a website custom audience over a pixel.
// The pixel must belong to the same advertiser: platforms do not let one
// advertiser target another's pixel traffic.
func (e *Engine) CreateWebsiteAudience(advertiser, name string, px pixel.PixelID) (*Audience, error) {
	p := e.pixels.Get(px)
	if p == nil {
		return nil, fmt.Errorf("audience: unknown pixel %q", px)
	}
	if p.Advertiser != advertiser {
		return nil, fmt.Errorf("audience: pixel %q belongs to advertiser %q, not %q", px, p.Advertiser, advertiser)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.newAudience(advertiser, KindWebsite, name)
	a.pixel = px
	return a, nil
}

// CreateAffinityAudience builds a keyword audience: each phrase is run
// through the catalog's keyword search (the same resolution the ads
// manager exposes) and the audience is everyone holding at least one
// matched attribute. Phrases that match nothing are simply inert, like on
// real platforms; an audience whose phrases all miss matches nobody.
func (e *Engine) CreateAffinityAudience(advertiser, name string, phrases []string, catalog *attr.Catalog) (*Audience, error) {
	if catalog == nil {
		return nil, fmt.Errorf("audience: affinity audience requires a catalog")
	}
	if len(phrases) == 0 {
		return nil, fmt.Errorf("audience: affinity audience requires at least one phrase")
	}
	resolved := make(map[attr.ID]bool)
	for _, ph := range phrases {
		for _, a := range catalog.Search(ph) {
			resolved[a.ID] = true
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.newAudience(advertiser, KindAffinity, name)
	a.affinity = resolved
	a.phrases = append([]string(nil), phrases...)
	return a, nil
}

// CreateEngagementAudience stores an audience of users who liked a page
// (how the paper's validation authors opted in: "by liking a Facebook page
// that we as the transparency provider had created").
func (e *Engine) CreateEngagementAudience(advertiser, name, pageID string) *Audience {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.newAudience(advertiser, KindEngagement, name)
	a.pageID = pageID
	return a
}

// MemberOf reports whether the profile is currently a member of the
// audience. Membership is evaluated live (a later pixel fire or page like
// joins the audience) and in O(1)-ish time per user, which is what lets the
// delivery pipeline check eligibility per feed slot.
func (e *Engine) MemberOf(a *Audience, p *profile.Profile) bool {
	switch a.Kind {
	case KindPII:
		for _, k := range p.PII().MatchKeys() {
			if a.keys[k] {
				return true
			}
		}
		return false
	case KindWebsite:
		o, ok := e.store.OrdOf(p)
		return ok && e.pixels.HasVisited(a.pixel, o)
	case KindEngagement:
		return p.LikesPage(a.pageID)
	case KindAffinity:
		for id := range a.affinity {
			if p.HasAttr(id) {
				return true
			}
		}
		return false
	case KindLookalike:
		return a.lookalikeMatch(p)
	default:
		return false
	}
}

// Compiled is a Spec with its audience IDs resolved to the stored
// audiences, once. Audiences are never deleted, so a Compiled stays valid
// for the engine's lifetime: the delivery pipeline compiles a campaign's
// spec when the campaign is registered and matches it on every browse.
type Compiled struct {
	include, includeAll, exclude []*Audience
	expr                         attr.Expr // never nil
	// customData is whether Include or IncludeAll names a PII-list or
	// website audience at all (see UsesCustomDataOn).
	customData bool
}

// Compile resolves the spec's audience IDs. Unknown audience IDs are the
// only error.
func (e *Engine) Compile(spec Spec) (Compiled, error) {
	c := Compiled{expr: spec.Expr}
	if c.expr == nil {
		c.expr = attr.MatchAll{}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	var err error
	if c.include, err = e.lookupLocked(spec.Include, "include"); err != nil {
		return Compiled{}, err
	}
	if c.includeAll, err = e.lookupLocked(spec.IncludeAll, "include-all"); err != nil {
		return Compiled{}, err
	}
	if c.exclude, err = e.lookupLocked(spec.Exclude, "exclude"); err != nil {
		return Compiled{}, err
	}
	c.customData = hasCustomData(c.include) || hasCustomData(c.includeAll)
	return c, nil
}

// lookupLocked resolves one of a spec's audience lists. Caller holds e.mu.
func (e *Engine) lookupLocked(ids []AudienceID, list string) ([]*Audience, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]*Audience, len(ids))
	for i, id := range ids {
		if out[i] = e.audiences[id]; out[i] == nil {
			return nil, fmt.Errorf("audience: unknown audience %q in %s list", id, list)
		}
	}
	return out, nil
}

// customData reports whether the audience is built from the advertiser's
// own data about users: a PII list or website activity.
func (a *Audience) customData() bool { return a.Kind == KindPII || a.Kind == KindWebsite }

func hasCustomData(as []*Audience) bool {
	for _, a := range as {
		if a.customData() {
			return true
		}
	}
	return false
}

// SpecMatches reports whether a single profile satisfies the spec.
func (e *Engine) SpecMatches(spec Spec, p *profile.Profile) (bool, error) {
	c, err := e.Compile(spec)
	if err != nil {
		return false, err
	}
	return e.Match(&c, p), nil
}

// Match reports whether the profile satisfies the compiled spec: by bitmap
// probes when the index can answer it, by the linear evaluation otherwise.
// It does not allocate.
func (e *Engine) Match(c *Compiled, p *profile.Profile) bool {
	if m, handled := e.matchIndexed(c, p); handled {
		return m
	}
	return e.matchScan(c, p)
}

// matchScan is the linear evaluation of a compiled spec against one profile
// — the path non-indexable specs take, and the oracle the index is verified
// against. Scan loops (CountMatches) call it directly so a single
// fallback query doesn't re-attempt the index per user.
func (e *Engine) matchScan(c *Compiled, p *profile.Profile) bool {
	for _, a := range c.includeAll {
		if !e.MemberOf(a, p) {
			return false
		}
	}
	if len(c.include) > 0 {
		in := false
		for _, a := range c.include {
			if e.MemberOf(a, p) {
				in = true
				break
			}
		}
		if !in {
			return false
		}
	}
	for _, a := range c.exclude {
		if e.MemberOf(a, p) {
			return false
		}
	}
	return c.expr.Match(p)
}

// UsesCustomDataOn reports whether the spec targets the profile through a
// PII-list or website (activity) custom audience the user belongs to. It
// backs the platform's "advertisers who are targeting you" transparency
// page (§2.2 of the paper: Facebook and Twitter "reveal to the user a list
// of advertisers who are using either activity-based retargeting or
// PII-based targeting to target them" — though not WHICH PII, the gap the
// paper calls out). A spec that names no such audience is known at compile
// time and costs nothing here.
func (e *Engine) UsesCustomDataOn(c *Compiled, p *profile.Profile) bool {
	if !c.customData {
		return false
	}
	for _, as := range [2][]*Audience{c.include, c.includeAll} {
		for _, a := range as {
			if a.customData() && e.MemberOf(a, p) {
				return true
			}
		}
	}
	return false
}

// ReachRounding is the granularity of potential-reach estimates. Platforms
// round reach to coarse buckets precisely so that advertisers cannot use
// reach deltas to test individual membership (the leak described in
// Venkatadri et al., IEEE S&P 2018, cited as [36], since patched).
const ReachRounding = 10

// MinReportableReach is the smallest reach the platform will report; below
// it the estimate is clamped to 0 ("fewer than N people"). Delivery is not
// blocked — the paper's validation delivered to an audience of two — only
// the advertiser-visible estimate is suppressed.
const MinReportableReach = 20

// ReportableReach is the one rule that turns an exact audience size into the
// advertiser-visible estimate: 0 below MinReportableReach, else rounded down
// to a multiple of ReachRounding. A cluster applies it once, to the sum of
// its shards' exact counts.
func ReportableReach(exact int) int {
	if exact < MinReportableReach {
		return 0
	}
	return exact - exact%ReachRounding
}

// PotentialReach returns the advertiser-visible reach estimate for a spec.
func (e *Engine) PotentialReach(spec Spec) (int, error) {
	n, err := e.CountMatches(spec)
	if err != nil {
		return 0, err
	}
	return ReportableReach(n), nil
}
