package core

import (
	"context"
	"strings"

	"fmt"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/stats"
)

// ProviderConfig parameterizes a transparency provider.
type ProviderConfig struct {
	// Name is the provider's advertiser-account name.
	Name string
	// Mode selects how Treads carry their payload.
	Mode RevealMode
	// BidCapCPM is the bid for every Tread. Zero selects the paper's
	// validation bid: $10 CPM, five times the platform default, "to
	// increase the chances of these ads winning the ad auction".
	BidCapCPM money.Micros
	// LandingBase is the provider's website base URL for landing-page
	// Treads.
	LandingBase string
	// CodebookSeed seeds obfuscation-code assignment.
	CodebookSeed uint64
	// FrequencyCap limits how often each Tread is shown per user.
	// Defaults to 1: one impression per payload is all transparency
	// needs, and it is what the cost model assumes.
	FrequencyCap int
}

// DefaultBidCapCPM is the validation's elevated bid: 5x the $2 default.
var DefaultBidCapCPM = money.FromDollars(10)

// PlatformAPI is the advertiser-facing platform surface a provider drives:
// exactly the endpoints a real transparency provider could reach from the
// outside, nothing platform-internal. *platform.Platform and
// *cluster.Cluster both satisfy it, so the whole Treads mechanism runs
// unchanged against an in-memory platform or a sharded multi-core cluster,
// journaled or not.
type PlatformAPI interface {
	Catalog() *attr.Catalog
	RegisterAdvertiser(name string) error
	IssuePixel(advertiser string) (pixel.PixelID, error)
	CreateCampaign(advertiser string, params platform.CampaignParams) (string, error)
	CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error)
	Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error)
}

var _ PlatformAPI = (*platform.Platform)(nil)

// Provider is a transparency provider: an entity (the paper suggests a
// non-profit) that signs up as an advertiser and runs one Tread per
// targeting parameter against its opted-in audience, so that each user
// learns exactly the parameters the platform believes they satisfy, while
// the provider learns nothing about any individual.
//
// A Provider is a single advertiser's control loop and is NOT safe for
// concurrent use; run concurrent deployments through separate providers
// (see the crowdsourced example).
type Provider struct {
	cfg      ProviderConfig
	platform PlatformAPI
	rng      *stats.RNG

	pixelID  pixel.PixelID
	pageID   string
	piiKeys  []pii.MatchKey
	codebook *Codebook

	campaigns map[string]Payload
	order     []string
	controlID string

	optInPixelAud audience.AudienceID
	optInPageAud  audience.AudienceID
	optInPIIAud   audience.AudienceID
	piiAudKeys    int // how many keys the current PII audience covers
}

// NewProvider registers the provider as an advertiser on the platform and
// provisions its opt-in channels (a tracking pixel for anonymous opt-in and
// a page for engagement opt-in).
func NewProvider(p PlatformAPI, cfg ProviderConfig) (*Provider, error) {
	if cfg.Name == "" {
		cfg.Name = "transparency-provider"
	}
	if cfg.BidCapCPM == 0 {
		cfg.BidCapCPM = DefaultBidCapCPM
	}
	if cfg.FrequencyCap == 0 {
		cfg.FrequencyCap = 1
	}
	if err := p.RegisterAdvertiser(cfg.Name); err != nil {
		return nil, err
	}
	px, err := p.IssuePixel(cfg.Name)
	if err != nil {
		return nil, err
	}
	return &Provider{
		cfg:       cfg,
		platform:  p,
		rng:       stats.NewRNG(cfg.CodebookSeed ^ 0x74726561647321),
		pixelID:   px,
		pageID:    cfg.Name + "/opt-in-page",
		codebook:  EmptyCodebook(),
		campaigns: make(map[string]Payload),
	}, nil
}

// Name returns the provider's advertiser-account name.
func (pr *Provider) Name() string { return pr.cfg.Name }

// OptInPixel is the tracking pixel on the provider's website. A user who
// visits the site (platform.VisitPage with this pixel) opts in while
// remaining anonymous to the provider — the platform never tells the
// provider who fired a pixel.
func (pr *Provider) OptInPixel() pixel.PixelID { return pr.pixelID }

// OptInPage is the provider's page; liking it is the engagement opt-in
// path the paper's validation used.
func (pr *Provider) OptInPage() string { return pr.pageID }

// OptInHashedPII records a hashed email/phone a user submitted to opt in.
// Only the hash reaches the provider (§3.1 "Supporting PII": platforms
// "generally only require hashed PII", so "the user only needs to provide
// PII to the transparency provider in hashed form").
func (pr *Provider) OptInHashedPII(k pii.MatchKey) {
	pr.piiKeys = append(pr.piiKeys, k)
}

// Codebook returns the obfuscation codebook the provider shares with users
// at opt-in. It grows as deployments mint new payloads.
func (pr *Provider) Codebook() *Codebook { return pr.codebook }

// optInAudiences lazily creates (and refreshes) the audiences describing
// the opted-in users: pixel visitors, page likers, and uploaded PII.
func (pr *Provider) optInAudiences() ([]audience.AudienceID, error) {
	if pr.optInPixelAud == "" {
		id, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindWebsite, Name: "opt-in site visitors", Pixel: pr.pixelID})
		if err != nil {
			return nil, err
		}
		pr.optInPixelAud = id
	}
	if pr.optInPageAud == "" {
		id, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindEngagement, Name: "opt-in page likers", Page: pr.pageID})
		if err != nil {
			return nil, err
		}
		pr.optInPageAud = id
	}
	if len(pr.piiKeys) > 0 && len(pr.piiKeys) != pr.piiAudKeys {
		id, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindPII, Name: "opt-in PII uploads", Keys: pr.piiKeys})
		if err != nil {
			return nil, err
		}
		pr.optInPIIAud = id
		pr.piiAudKeys = len(pr.piiKeys)
	}
	auds := []audience.AudienceID{pr.optInPixelAud, pr.optInPageAud}
	if pr.optInPIIAud != "" {
		auds = append(auds, pr.optInPIIAud)
	}
	return auds, nil
}

// ensureCodes assigns obfuscation codes to any payloads not yet in the
// provider's codebook.
func (pr *Provider) ensureCodes(payloads []Payload) error {
	var missing []Payload
	for _, p := range payloads {
		if pr.codebook.Code(p) == "" {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	fresh, err := NewCodebook(missing, pr.rng.Uint64())
	if err != nil {
		return err
	}
	return pr.codebook.Merge(fresh)
}

// RejectedTread records a Tread that ad review refused to run.
type RejectedTread struct {
	Payload Payload
	Err     error
}

// DeployResult summarizes one deployment.
type DeployResult struct {
	// ControlID is the control campaign (created by DeployControl or the
	// first Deploy on this provider), "" otherwise.
	ControlID string
	// Campaigns maps created campaign IDs to their payloads.
	Campaigns map[string]Payload
	// Rejected lists payloads whose Treads ad review refused.
	Rejected []RejectedTread
}

// launch creates one campaign for a payload with the given extra targeting
// expression (intersected with the opt-in audience).
func (pr *Provider) launch(p Payload, extra attr.Expr, include []audience.AudienceID) (string, error) {
	return pr.launchWithSpec(p, audience.Spec{Include: include, Expr: extra})
}

// DeployControl runs the control ad targeting the whole opt-in audience
// with no additional parameters.
func (pr *Provider) DeployControl() (string, error) {
	if pr.controlID != "" {
		return pr.controlID, nil
	}
	include, err := pr.optInAudiences()
	if err != nil {
		return "", err
	}
	p := Payload{Kind: PayloadControl}
	if err := pr.ensureCodes([]Payload{p}); err != nil {
		return "", err
	}
	id, err := pr.launch(p, nil, include)
	if err != nil {
		return "", err
	}
	pr.controlID = id
	return id, nil
}

// DeployAttrTreads runs one Tread per attribute ID against the opt-in
// audience: users holding the attribute see the corresponding Tread.
// Rejected creatives (explicit mode under ad review) are collected, not
// fatal.
func (pr *Provider) DeployAttrTreads(ids []attr.ID) (*DeployResult, error) {
	payloads := make([]Payload, len(ids))
	exprs := make([]attr.Expr, len(ids))
	for i, id := range ids {
		payloads[i] = Payload{Kind: PayloadAttr, Attr: id}
		exprs[i] = attr.Has{ID: id}
	}
	return pr.deploy(payloads, exprs)
}

// DeployNotAttrTreads runs exclusion Treads: a user seeing one learns the
// attribute is false or missing for them (§3.1: "a Tread that excludes
// users who satisfy that attribute").
func (pr *Provider) DeployNotAttrTreads(ids []attr.ID) (*DeployResult, error) {
	payloads := make([]Payload, len(ids))
	exprs := make([]attr.Expr, len(ids))
	for i, id := range ids {
		payloads[i] = Payload{Kind: PayloadNotAttr, Attr: id}
		exprs[i] = attr.Not{Op: attr.Has{ID: id}}
	}
	return pr.deploy(payloads, exprs)
}

// DeployValueTreads runs one Tread per possible value of a categorical
// attribute (the one-per-value scheme; each user pays for at most one
// impression since they hold at most one value).
func (pr *Provider) DeployValueTreads(id attr.ID) (*DeployResult, error) {
	a := pr.platform.Catalog().Get(id)
	if a == nil {
		return nil, fmt.Errorf("core: unknown attribute %q", id)
	}
	if a.Kind != attr.Categorical {
		return nil, fmt.Errorf("core: attribute %q is not categorical", id)
	}
	payloads := make([]Payload, len(a.Values))
	exprs := make([]attr.Expr, len(a.Values))
	for i, v := range a.Values {
		payloads[i] = Payload{Kind: PayloadValue, Attr: id, Value: v}
		exprs[i] = attr.ValueIs{ID: id, Value: v}
	}
	return pr.deploy(payloads, exprs)
}

// DeployBitSplitTreads runs the log2(m) scheme for a categorical attribute:
// one confirmation Tread (attribute set at all) plus one Tread per value-
// index bit. A user reassembles their value from which bit-Treads they saw.
func (pr *Provider) DeployBitSplitTreads(id attr.ID) (*DeployResult, error) {
	a := pr.platform.Catalog().Get(id)
	if a == nil {
		return nil, fmt.Errorf("core: unknown attribute %q", id)
	}
	if a.Kind != attr.Categorical {
		return nil, fmt.Errorf("core: attribute %q is not categorical", id)
	}
	bits := BitsNeeded(len(a.Values))
	payloads := []Payload{{Kind: PayloadAttr, Attr: id}}
	exprs := []attr.Expr{attr.Has{ID: id}}
	for b := 0; b < bits; b++ {
		e, err := BitExpr(a, b)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, Payload{Kind: PayloadBit, Attr: id, Bit: b, BitSet: true})
		exprs = append(exprs, e)
	}
	return pr.deploy(payloads, exprs)
}

// DeployPIIChecks runs one Tread per hashed PII key: the platform matches
// the key against its own records, so a user seeing the Tread learns the
// platform holds that piece of their PII. The targeted audience is exactly
// the uploaded key, no opt-in intersection needed — uploading the hash was
// the opt-in.
func (pr *Provider) DeployPIIChecks(keys []pii.MatchKey) (*DeployResult, error) {
	res := &DeployResult{Campaigns: make(map[string]Payload)}
	for _, k := range keys {
		p := Payload{Kind: PayloadPII, PIIHash: k.Hash}
		if err := pr.ensureCodes([]Payload{p}); err != nil {
			return nil, err
		}
		name := "pii-check " + k.Hash[:min(8, len(k.Hash))]
		audID, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindPII, Name: name, Keys: []pii.MatchKey{k}})
		if err != nil {
			return nil, err
		}
		id, err := pr.launch(p, nil, []audience.AudienceID{audID})
		if err != nil {
			res.Rejected = append(res.Rejected, RejectedTread{Payload: p, Err: err})
			continue
		}
		res.Campaigns[id] = p
	}
	return res, nil
}

// LocationAttr is the pseudo-attribute under which region Treads report
// their findings; it names the platform's location belief rather than a
// catalog entry.
const LocationAttr = attr.ID("platform.location.recent_region")

// DeployRegionTreads reveals the platform's location belief, the paper's
// running non-binary example ("for non-binary attributes like location, a
// Tread can reveal whether the attribute is set to a particular value
// (e.g., whether a user is determined to have recently visited a
// particular ZIP code as per the advertising platform)", §3.1): one Tread
// per candidate region, each targeting opted-in users the platform places
// there. Like all value Treads, a user pays for at most one impression.
func (pr *Provider) DeployRegionTreads(regions []string) (*DeployResult, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: DeployRegionTreads requires at least one region")
	}
	payloads := make([]Payload, len(regions))
	exprs := make([]attr.Expr, len(regions))
	for i, region := range regions {
		payloads[i] = Payload{Kind: PayloadValue, Attr: LocationAttr, Value: region}
		exprs[i] = attr.RegionIs{Region: region}
	}
	return pr.deploy(payloads, exprs)
}

// DeployRadiusTread reveals whether the platform places the user within a
// radius of a point (footnote 1: advertisers can target "within a radius
// around any latitude and longitude"). The label names the area in the
// payload ("downtown Boston"), keeping coordinates out of the creative.
func (pr *Provider) DeployRadiusTread(lat, lon, km float64, label string) (*DeployResult, error) {
	if label == "" {
		return nil, fmt.Errorf("core: DeployRadiusTread requires a label")
	}
	p := Payload{Kind: PayloadValue, Attr: LocationAttr, Value: label}
	e := attr.WithinKM{Lat: lat, Lon: lon, KM: km}
	return pr.deploy([]Payload{p}, []attr.Expr{e})
}

// DeployAffinityTread reveals keyword-audience membership (§2.1's custom
// affinity/intent audiences; part of §3.1's "wider variety of
// information"): the platform resolves the phrases internally, and an
// opted-in user who lands in the resulting audience sees the Tread.
func (pr *Provider) DeployAffinityTread(phrases []string) (*DeployResult, error) {
	audID, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindAffinity, Name: "affinity " + strings.Join(phrases, "|"), Phrases: phrases})
	if err != nil {
		return nil, err
	}
	optIns, err := pr.optInAudiences()
	if err != nil {
		return nil, err
	}
	p := Payload{Kind: PayloadAffinity, Phrases: strings.Join(phrases, "|")}
	if err := pr.ensureCodes([]Payload{p}); err != nil {
		return nil, err
	}
	res := &DeployResult{Campaigns: make(map[string]Payload)}
	// Target: opted in through any channel (Include is an OR-list) AND in
	// the affinity audience — the platform's "narrow audience" feature.
	cid, err := pr.launchWithSpec(p, audience.Spec{
		Include:    optIns,
		IncludeAll: []audience.AudienceID{audID},
	})
	if err != nil {
		res.Rejected = append(res.Rejected, RejectedTread{Payload: p, Err: err})
		return res, nil
	}
	res.Campaigns[cid] = p
	return res, nil
}

// launchWithSpec is launch with a fully specified targeting spec.
func (pr *Provider) launchWithSpec(p Payload, spec audience.Spec) (string, error) {
	creative, err := EncodeCreative(p, pr.cfg.Mode, pr.platform.Catalog(), pr.codebook, pr.cfg.LandingBase)
	if err != nil {
		return "", err
	}
	id, err := pr.platform.CreateCampaign(pr.cfg.Name, platform.CampaignParams{
		Spec:         spec,
		BidCapCPM:    pr.cfg.BidCapCPM,
		Creative:     creative,
		FrequencyCap: pr.cfg.FrequencyCap,
	})
	if err != nil {
		return "", err
	}
	pr.campaigns[id] = p
	pr.order = append(pr.order, id)
	return id, nil
}

// DeployExprTread reveals that a user satisfies an arbitrary Boolean
// targeting expression (§2.1's compound example). Each opted-in user who
// matches the whole expression sees the Tread and learns the full
// combination — something per-attribute Treads can only approximate.
func (pr *Provider) DeployExprTread(e attr.Expr) (*DeployResult, error) {
	if e == nil {
		return nil, fmt.Errorf("core: DeployExprTread requires an expression")
	}
	if err := attr.Validate(e, pr.platform.Catalog()); err != nil {
		return nil, err
	}
	p := Payload{Kind: PayloadExpr, Expr: e.String()}
	return pr.deploy([]Payload{p}, []attr.Expr{e})
}

// DeployLookalikeTread reveals lookalike-audience membership: the provider
// builds a lookalike over one of its own audiences (seedID) and targets
// opted-in users who land in it. seedDesc is the human description shown
// to the user ("people similar to our opt-in page's likers").
func (pr *Provider) DeployLookalikeTread(seedID audience.AudienceID, seedDesc string, overlap float64) (*DeployResult, error) {
	if seedDesc == "" {
		return nil, fmt.Errorf("core: DeployLookalikeTread requires a seed description")
	}
	lookID, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindLookalike, Name: "lookalike " + seedDesc, Seed: seedID, Overlap: overlap})
	if err != nil {
		return nil, err
	}
	optIns, err := pr.optInAudiences()
	if err != nil {
		return nil, err
	}
	p := Payload{Kind: PayloadLookalike, SeedDesc: seedDesc}
	if err := pr.ensureCodes([]Payload{p}); err != nil {
		return nil, err
	}
	res := &DeployResult{Campaigns: make(map[string]Payload)}
	cid, err := pr.launchWithSpec(p, audience.Spec{
		Include:    optIns,
		IncludeAll: []audience.AudienceID{lookID},
	})
	if err != nil {
		res.Rejected = append(res.Rejected, RejectedTread{Payload: p, Err: err})
		return res, nil
	}
	res.Campaigns[cid] = p
	return res, nil
}

// DeployCustomAttrOptIn provisions the per-attribute anonymous opt-in of
// §3.1 "Supporting custom attributes": a distinct pixel page for the
// attribute, plus a Tread targeting (visitors of that page) AND (the
// attribute). It returns the pixel users must fire to opt in to learning
// this attribute; the campaign picks up later visitors automatically.
func (pr *Provider) DeployCustomAttrOptIn(id attr.ID) (pixel.PixelID, *DeployResult, error) {
	a := pr.platform.Catalog().Get(id)
	if a == nil {
		return "", nil, fmt.Errorf("core: unknown attribute %q", id)
	}
	px, err := pr.platform.IssuePixel(pr.cfg.Name)
	if err != nil {
		return "", nil, err
	}
	audID, err := pr.platform.CreateAudience(pr.cfg.Name, audience.Def{Kind: audience.KindWebsite, Name: "custom opt-in " + string(id), Pixel: px})
	if err != nil {
		return "", nil, err
	}
	p := Payload{Kind: PayloadAttr, Attr: id}
	if err := pr.ensureCodes([]Payload{p}); err != nil {
		return "", nil, err
	}
	res := &DeployResult{Campaigns: make(map[string]Payload)}
	cid, err := pr.launch(p, attr.Has{ID: id}, []audience.AudienceID{audID})
	if err != nil {
		res.Rejected = append(res.Rejected, RejectedTread{Payload: p, Err: err})
		return px, res, nil
	}
	res.Campaigns[cid] = p
	return px, res, nil
}

// deploy is the common fan-out: one campaign per (payload, expr), all
// intersected with the opt-in audience, preceded by the control ad.
func (pr *Provider) deploy(payloads []Payload, exprs []attr.Expr) (*DeployResult, error) {
	include, err := pr.optInAudiences()
	if err != nil {
		return nil, err
	}
	if err := pr.ensureCodes(payloads); err != nil {
		return nil, err
	}
	res := &DeployResult{Campaigns: make(map[string]Payload)}
	if pr.controlID == "" {
		if _, err := pr.DeployControl(); err != nil {
			return nil, err
		}
	}
	res.ControlID = pr.controlID
	for i, p := range payloads {
		id, err := pr.launch(p, exprs[i], include)
		if err != nil {
			res.Rejected = append(res.Rejected, RejectedTread{Payload: p, Err: err})
			continue
		}
		res.Campaigns[id] = p
	}
	return res, nil
}

// Campaigns returns all campaign IDs in creation order.
func (pr *Provider) Campaigns() []string { return append([]string(nil), pr.order...) }

// Report returns the platform's advertiser-visible report for one of the
// provider's campaigns — the entirety of what the provider can observe
// about delivery.
func (pr *Provider) Report(campaignID string) (billing.Report, error) {
	return pr.platform.Report(context.Background(), pr.cfg.Name, campaignID)
}

// TotalInvoiced sums the provider's invoices across all its campaigns.
func (pr *Provider) TotalInvoiced() money.Micros {
	var total money.Micros
	for _, id := range pr.order {
		if r, err := pr.Report(id); err == nil {
			total += r.Spend
		}
	}
	return total
}
