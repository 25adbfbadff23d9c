// Package httpapi exposes the simulated advertising platform over HTTP,
// with a typed Go client SDK. It is the repo's network surface: the
// advertiser REST API, the user feed API, the platform's transparency
// pages, and — centrally for Treads — the tracking-pixel GET endpoint a
// transparency provider embeds on its website so users can opt in
// anonymously.
//
// Wire format is JSON. Targeting expressions travel as their canonical
// textual syntax (attr.Parse / Expr.String), so the API is usable from any
// language.
package httpapi

import (
	"fmt"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/pii"
)

// SpecWire is the JSON form of audience.Spec.
type SpecWire struct {
	Include []string `json:"include,omitempty"`
	// IncludeAll narrows: the user must be in every listed audience.
	IncludeAll []string `json:"include_all,omitempty"`
	Exclude    []string `json:"exclude,omitempty"`
	// Expr is the canonical targeting expression, e.g.
	// "attr(platform.music.jazz) AND age(30, 65)". Empty means all().
	Expr string `json:"expr,omitempty"`
}

// ToSpec parses the wire form.
func (w SpecWire) ToSpec() (audience.Spec, error) {
	spec := audience.Spec{}
	for _, id := range w.Include {
		spec.Include = append(spec.Include, audience.AudienceID(id))
	}
	for _, id := range w.IncludeAll {
		spec.IncludeAll = append(spec.IncludeAll, audience.AudienceID(id))
	}
	for _, id := range w.Exclude {
		spec.Exclude = append(spec.Exclude, audience.AudienceID(id))
	}
	if w.Expr != "" {
		e, err := attr.Parse(w.Expr)
		if err != nil {
			return audience.Spec{}, fmt.Errorf("httpapi: bad expr: %w", err)
		}
		spec.Expr = e
	}
	return spec, nil
}

// CreativeWire is the JSON form of ad.Creative. ImagePNG travels as
// standard base64 (encoding/json's []byte representation).
type CreativeWire struct {
	Headline    string `json:"headline,omitempty"`
	Body        string `json:"body"`
	LandingURL  string `json:"landing_url,omitempty"`
	LandingBody string `json:"landing_body,omitempty"`
	ImagePNG    []byte `json:"image_png,omitempty"`
}

// ToCreative converts to the internal type.
func (w CreativeWire) ToCreative() ad.Creative {
	return ad.Creative{
		Headline:    w.Headline,
		Body:        w.Body,
		LandingURL:  w.LandingURL,
		LandingBody: w.LandingBody,
		ImagePNG:    w.ImagePNG,
	}
}

// FromCreative converts from the internal type.
func FromCreative(c ad.Creative) CreativeWire {
	return CreativeWire{
		Headline:    c.Headline,
		Body:        c.Body,
		LandingURL:  c.LandingURL,
		LandingBody: c.LandingBody,
		ImagePNG:    c.ImagePNG,
	}
}

// RegisterAdvertiserRequest creates an advertiser account.
type RegisterAdvertiserRequest struct {
	Name string `json:"name"`
}

// RegisterAdvertiserResponse confirms registration. Token is the account's
// API bearer token when the server runs with authentication enabled.
type RegisterAdvertiserResponse struct {
	Name  string `json:"name"`
	Token string `json:"token,omitempty"`
}

// CreateCampaignRequest creates a campaign.
type CreateCampaignRequest struct {
	Spec         SpecWire     `json:"spec"`
	BidCapUSD    float64      `json:"bid_cap_usd,omitempty"`
	Creative     CreativeWire `json:"creative"`
	FrequencyCap int          `json:"frequency_cap,omitempty"`
	// BudgetUSD caps total campaign spend; zero means unlimited.
	BudgetUSD float64 `json:"budget_usd,omitempty"`
}

// CreateCampaignResponse returns the new campaign ID.
type CreateCampaignResponse struct {
	CampaignID string `json:"campaign_id"`
}

// MatchKeyWire is the JSON form of pii.MatchKey.
type MatchKeyWire struct {
	Type string `json:"type"` // "email" or "phone"
	Hash string `json:"hash"`
}

// ToMatchKey parses the wire form.
func (w MatchKeyWire) ToMatchKey() (pii.MatchKey, error) {
	switch w.Type {
	case "email":
		return pii.MatchKey{Type: pii.Email, Hash: w.Hash}, nil
	case "phone":
		return pii.MatchKey{Type: pii.Phone, Hash: w.Hash}, nil
	default:
		return pii.MatchKey{}, fmt.Errorf("httpapi: unknown PII type %q", w.Type)
	}
}

// FromMatchKey converts to the wire form.
func FromMatchKey(k pii.MatchKey) MatchKeyWire {
	return MatchKeyWire{Type: k.Type.String(), Hash: k.Hash}
}

// CreatePIIAudienceRequest uploads hashed PII as a customer-list audience.
type CreatePIIAudienceRequest struct {
	Name string         `json:"name"`
	Keys []MatchKeyWire `json:"keys"`
}

// CreateWebsiteAudienceRequest builds an audience over a pixel.
type CreateWebsiteAudienceRequest struct {
	Name    string `json:"name"`
	PixelID string `json:"pixel_id"`
}

// CreateEngagementAudienceRequest builds an audience of page likers.
type CreateEngagementAudienceRequest struct {
	Name   string `json:"name"`
	PageID string `json:"page_id"`
}

// CreateAffinityAudienceRequest builds a keyword (custom-affinity)
// audience from phrases the platform resolves internally.
type CreateAffinityAudienceRequest struct {
	Name    string   `json:"name"`
	Phrases []string `json:"phrases"`
}

// CreateLookalikeAudienceRequest derives a similarity audience from one of
// the advertiser's existing audiences.
type CreateLookalikeAudienceRequest struct {
	Name string `json:"name"`
	Seed string `json:"seed"`
	// Overlap is the signature fraction a user must hold; 0 selects the
	// platform default.
	Overlap float64 `json:"overlap,omitempty"`
}

// AudienceResponse returns a created audience's ID.
type AudienceResponse struct {
	AudienceID string `json:"audience_id"`
}

// PixelResponse returns an issued pixel's ID.
type PixelResponse struct {
	PixelID string `json:"pixel_id"`
}

// ReachRequest asks for the reach estimate of a spec.
type ReachRequest struct {
	Spec SpecWire `json:"spec"`
}

// ReachResponse carries the rounded, thresholded estimate.
type ReachResponse struct {
	Reach int `json:"reach"`
}

// ReportWire is the JSON form of billing.Report.
type ReportWire struct {
	CampaignID  string  `json:"campaign_id"`
	Impressions int     `json:"impressions"`
	Reach       int     `json:"reach"`
	SpendUSD    float64 `json:"spend_usd"`
}

// FromReport converts from the internal type.
func FromReport(r billing.Report) ReportWire {
	return ReportWire{
		CampaignID:  r.CampaignID,
		Impressions: r.Impressions,
		Reach:       r.Reach,
		SpendUSD:    r.Spend.Dollars(),
	}
}

// ImpressionWire is the JSON form of ad.Impression.
type ImpressionWire struct {
	CampaignID string       `json:"campaign_id"`
	Advertiser string       `json:"advertiser"`
	Creative   CreativeWire `json:"creative"`
	Slot       int          `json:"slot"`
}

// FromImpression converts from the internal type.
func FromImpression(i ad.Impression) ImpressionWire {
	return ImpressionWire{
		CampaignID: i.CampaignID,
		Advertiser: i.Advertiser,
		Creative:   FromCreative(i.Creative),
		Slot:       i.Slot,
	}
}

// ToImpression converts back to the internal type.
func (w ImpressionWire) ToImpression() ad.Impression {
	return ad.Impression{
		CampaignID: w.CampaignID,
		Advertiser: w.Advertiser,
		Creative:   w.Creative.ToCreative(),
		Slot:       w.Slot,
	}
}

// AttributeWire is the JSON form of a catalog attribute.
type AttributeWire struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Category string   `json:"category"`
	Source   string   `json:"source"`
	Broker   string   `json:"broker,omitempty"`
	Kind     string   `json:"kind"`
	Values   []string `json:"values,omitempty"`
}

// FromAttribute converts from the internal type.
func FromAttribute(a *attr.Attribute) AttributeWire {
	return AttributeWire{
		ID:       string(a.ID),
		Name:     a.Name,
		Category: a.Category,
		Source:   a.Source.String(),
		Broker:   a.Broker,
		Kind:     a.Kind.String(),
		Values:   a.Values,
	}
}

// LikeRequest records a page like.
type LikeRequest struct {
	PageID string `json:"page_id"`
}

// PreferencesResponse is the user's ad-preferences page.
type PreferencesResponse struct {
	Attributes []string `json:"attributes"`
}

// AdvertisersResponse is the "advertisers who are targeting you" page:
// accounts using PII-list or website-activity audiences that include the
// user (the platform does not say which PII — the §2.2 gap).
type AdvertisersResponse struct {
	Advertisers []string `json:"advertisers"`
}

// ExplanationWire is the JSON form of an ad explanation.
type ExplanationWire struct {
	Attribute string `json:"attribute,omitempty"`
	Text      string `json:"text"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
