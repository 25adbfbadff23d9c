// Package treads is an open-source implementation of Treads —
// Transparency-Enhancing Advertisements (Venkatadri, Mislove, Gummadi;
// HotNets-XVII, 2018) — together with the complete simulated advertising
// platform the mechanism needs to run against.
//
// A Tread is a targeted advertisement whose creative reveals (explicitly,
// in obfuscated form, or on a landing page) the targeting parameters that
// caused it to be delivered. A transparency provider signs up as an
// ordinary advertiser, lets users opt in (by hashed PII, by liking the
// provider's page, or anonymously via a tracking pixel on the provider's
// website), and runs one Tread per targeting attribute: each user then
// sees exactly the Treads for the attributes the platform believes they
// have — learning their platform-held profile — while the provider, by
// construction of advertising platforms, learns nothing about any
// individual.
//
// # Quick start
//
//	p := treads.NewPlatform(treads.PlatformConfig{Seed: 1})
//	// ... add users (see examples/quickstart) ...
//	tp, _ := treads.NewProvider(p, treads.ProviderConfig{
//		Name: "my-tp", Mode: treads.RevealObfuscated,
//	})
//	p.LikePage("some-user", tp.OptInPage())           // user opts in
//	tp.DeployAttrTreads(treads.PartnerAttrIDs(p))     // one Tread per attribute
//	p.BrowseFeed("some-user", 600)                    // user browses
//	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
//	revealed := ext.Scan(p.Feed("some-user"), p.Catalog())
//
// The packages under internal/ implement the substrates (attribute catalog
// and targeting language, profile store, PII hashing, audiences, tracking
// pixels, second-price auction, delivery, billing, ad-review policy, the
// platform's own transparency baseline, and an HTTP API); this package is
// the stable public surface over them.
package treads

import (
	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/baseline"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// --- the simulated advertising platform ---

// Platform is a complete simulated advertising platform: profile store,
// attribute catalog, audience engine, tracking pixels, second-price
// auction, delivery pipeline, billing, ad review, and the platform's own
// transparency surfaces.
type Platform = platform.Platform

// PlatformConfig parameterizes NewPlatform.
type PlatformConfig = platform.Config

// CampaignParams are an advertiser's campaign-creation inputs.
type CampaignParams = platform.CampaignParams

// ErrRejected wraps campaign-creation failures caused by ad review.
var ErrRejected = platform.ErrRejected

// NewPlatform builds a platform.
func NewPlatform(cfg PlatformConfig) *Platform { return platform.New(cfg) }

// Market models the background auction competition.
type Market = auction.Market

// DefaultMarket is the market model the experiments use.
func DefaultMarket() Market { return auction.DefaultMarket() }

// --- users, attributes, money ---

// Profile is one user's platform-held profile.
type Profile = profile.Profile

// UserID identifies a platform user.
type UserID = profile.UserID

// NewProfile returns an empty profile.
func NewProfile(id UserID) *Profile { return profile.New(id) }

// AttrID identifies a targeting attribute.
type AttrID = attr.ID

// Attribute is one catalog entry.
type Attribute = attr.Attribute

// Catalog is a platform's attribute catalog.
type Catalog = attr.Catalog

// Expr is a targeting expression; build with ParseExpr or the attr
// constructors.
type Expr = attr.Expr

// ParseExpr parses the canonical targeting syntax, e.g.
// "attr(platform.music.jazz) AND age(30, 65)".
func ParseExpr(s string) (Expr, error) { return attr.Parse(s) }

// DefaultCatalog returns the default catalog: 614 platform attributes and
// 507 U.S. partner (data-broker) attributes, matching the counts the paper
// reports for early-2018 Facebook.
func DefaultCatalog() *Catalog { return attr.DefaultCatalog() }

// PartnerAttrIDs lists the IDs of every partner (data-broker) attribute in
// the platform's catalog — the attributes the platform's own transparency
// page hides and the paper's validation reveals.
func PartnerAttrIDs(p *Platform) []AttrID {
	var ids []AttrID
	for _, a := range p.Catalog().BySource(attr.SourcePartner) {
		ids = append(ids, a.ID)
	}
	return ids
}

// Micros is an exact USD amount in micro-dollars.
type Micros = money.Micros

// Dollars converts a float USD amount to Micros.
func Dollars(d float64) Micros { return money.FromDollars(d) }

// MatchKey is a hashed, normalized piece of PII.
type MatchKey = pii.MatchKey

// PIIRecord is the PII the platform holds for one user (Profile.SetPII).
type PIIRecord = pii.Record

// HashEmail normalizes and hashes an email address.
func HashEmail(raw string) (MatchKey, error) { return pii.HashEmail(raw) }

// HashPhone normalizes and hashes a phone number.
func HashPhone(raw string) (MatchKey, error) { return pii.HashPhone(raw) }

// PixelID identifies a tracking pixel.
type PixelID = pixel.PixelID

// AudienceID identifies a stored custom audience.
type AudienceID = audience.AudienceID

// AudienceDef defines one custom audience for CreateAudience on a Platform
// or Cluster: its kind, its name and that kind's one argument.
type AudienceDef = audience.Def

// AudienceKind is how a custom audience is built.
type AudienceKind = audience.Kind

// Audience kinds.
const (
	AudiencePII        = audience.KindPII
	AudienceWebsite    = audience.KindWebsite
	AudienceEngagement = audience.KindEngagement
	AudienceAffinity   = audience.KindAffinity
	AudienceLookalike  = audience.KindLookalike
)

// Spec is a complete targeting specification.
type Spec = audience.Spec

// Report is an advertiser-visible campaign performance report.
type Report = billing.Report

// Impression is one ad delivery in a user's feed.
type Impression = ad.Impression

// Creative is the user-visible content of an ad.
type Creative = ad.Creative

// Explanation is a platform-generated "why am I seeing this?" answer.
type Explanation = explain.Explanation

// --- the Treads core ---

// Provider is a transparency provider.
type Provider = core.Provider

// ProviderConfig parameterizes NewProvider.
type ProviderConfig = core.ProviderConfig

// NewProvider registers a transparency provider on the platform.
func NewProvider(p *Platform, cfg ProviderConfig) (*Provider, error) {
	return core.NewProvider(p, cfg)
}

// PlatformAPI is the advertiser-facing surface a transparency provider
// needs: a bare Platform, a journaled Platform, and a sharded Cluster all
// satisfy it.
type PlatformAPI = core.PlatformAPI

// NewProviderOn registers a transparency provider on any PlatformAPI
// backend — use it to run a provider against a Cluster; the reveal
// semantics are identical to the single-platform case.
func NewProviderOn(p PlatformAPI, cfg ProviderConfig) (*Provider, error) {
	return core.NewProvider(p, cfg)
}

// --- sharded cluster ---

// Cluster partitions users across independent platform shards behind the
// same advertiser and user API as a single Platform: user operations route
// to the owning shard, advertiser mutations replicate deterministically to
// every shard, and aggregate reads scatter-gather with privacy thresholds
// applied once on the merged totals.
type Cluster = cluster.Cluster

// ClusterOptions tunes ring and scatter-gather parameters.
type ClusterOptions = cluster.Options

// NewCluster builds an n-shard in-memory cluster. Each shard derives its
// own RNG stream from cfg.Seed; a 1-shard cluster behaves identically to
// NewPlatform with the same config.
func NewCluster(n int, cfg PlatformConfig, opts ClusterOptions) (*Cluster, error) {
	return cluster.NewInMemory(n, cfg, opts)
}

// RevealMode selects how a Tread carries its payload.
type RevealMode = core.RevealMode

// Reveal modes.
const (
	RevealExplicit    = core.RevealExplicit
	RevealObfuscated  = core.RevealObfuscated
	RevealLandingPage = core.RevealLandingPage
	RevealStego       = core.RevealStego
)

// Payload is the information one Tread conveys.
type Payload = core.Payload

// Payload kinds.
const (
	PayloadControl   = core.PayloadControl
	PayloadAttr      = core.PayloadAttr
	PayloadNotAttr   = core.PayloadNotAttr
	PayloadValue     = core.PayloadValue
	PayloadBit       = core.PayloadBit
	PayloadPII       = core.PayloadPII
	PayloadAffinity  = core.PayloadAffinity
	PayloadLookalike = core.PayloadLookalike
	PayloadExpr      = core.PayloadExpr
)

// Codebook maps obfuscation codes to payloads; shared with users at
// opt-in.
type Codebook = core.Codebook

// DeployResult summarizes one Tread deployment.
type DeployResult = core.DeployResult

// Extension is the user-side collector that decodes Treads from a feed.
type Extension = core.Extension

// Revealed is what a user learned from their Treads.
type Revealed = core.Revealed

// CostModel reproduces the paper's cost arithmetic.
type CostModel = core.CostModel

// NewCostModel returns a cost model at the given bid (0 = the $2 default).
func NewCostModel(bidCPM Micros) CostModel { return core.NewCostModel(bidCPM) }

// BitsNeeded is ceil(log2(m)): Treads needed for an m-valued attribute.
func BitsNeeded(m int) int { return core.BitsNeeded(m) }

// ProviderView is what a provider can observe about one Tread campaign.
type ProviderView = core.ProviderView

// PrevalenceEstimate is the aggregate a provider legitimately learns.
func PrevalenceEstimate(v ProviderView) (est, lo, hi float64) {
	return core.PrevalenceEstimate(v)
}

// Shard is one account's slice of a crowdsourced deployment.
type Shard = core.Shard

// ShardAttributes distributes attributes over advertiser accounts.
func ShardAttributes(attrs []AttrID, accounts, replication int) ([]Shard, error) {
	return core.ShardAttributes(attrs, accounts, replication)
}

// Coverage is the fraction of attributes surviving a set of account bans.
func Coverage(shards []Shard, banned map[string]bool) float64 {
	return core.Coverage(shards, banned)
}

// Intent is an advertiser-driven explanation.
type Intent = core.Intent

// --- workloads and baselines ---

// WorkloadConfig parameterizes synthetic population generation.
type WorkloadConfig = workload.Config

// GeneratePopulation produces a deterministic synthetic population.
func GeneratePopulation(cfg WorkloadConfig) []*Profile { return workload.Generate(cfg) }

// DefaultWorkload is the population config the experiments default to.
func DefaultWorkload() WorkloadConfig { return workload.DefaultConfig() }

// WorkloadTarget is the user-facing surface the concurrent driver
// exercises; Platform and Cluster both satisfy it.
type WorkloadTarget = workload.Target

// DriverConfig parameterizes the concurrent workload driver.
type DriverConfig = workload.DriverConfig

// DriverStats are a driver run's aggregate operation counts.
type DriverStats = workload.DriverStats

// DriveWorkload floods a backend with a concurrent mixed workload and
// returns the counts; see DriverConfig for knobs.
func DriveWorkload(t WorkloadTarget, cfg DriverConfig) DriverStats {
	return workload.Drive(t, cfg)
}

// PaperAuthors reconstructs the validation's two opted-in users: one with
// the paper's eleven broker attributes, one with no broker record.
func PaperAuthors(catalog *Catalog) (authorA, authorB *Profile, err error) {
	return workload.PaperAuthors(catalog)
}

// Correlator is the XRay/Sunlight-style correlation baseline.
type Correlator = baseline.Correlator

// NewCorrelator returns a correlator at the default significance level.
func NewCorrelator() *Correlator { return baseline.NewCorrelator() }

// PanelMember is one correlation-panel participant.
type PanelMember = baseline.PanelMember

// --- HTTP surface ---

// Server serves a platform over HTTP (advertiser API, user feed,
// tracking-pixel endpoint).
type Server = httpapi.Server

// Client is the typed SDK for the HTTP API.
type Client = httpapi.Client

// NewServer wraps a platform in an HTTP handler (no authentication; use
// NewServerWithAuth for deployments).
func NewServer(p *Platform) *Server { return httpapi.NewServer(p, nil) }

// Authenticator issues and verifies per-advertiser API tokens.
type Authenticator = httpapi.Authenticator

// NewServerWithAuth wraps a platform in an HTTP handler that requires
// per-advertiser bearer tokens, issued at registration.
func NewServerWithAuth(p *Platform) (*Server, *Authenticator) {
	return httpapi.NewServerWithAuth(p, nil)
}

// NewClient returns an HTTP API client for the base URL.
func NewClient(baseURL string) *Client { return httpapi.NewClient(baseURL) }

// Wire types for the HTTP API (JSON request/response bodies).
type (
	// SpecWire is the JSON form of a targeting spec.
	SpecWire = httpapi.SpecWire
	// CreativeWire is the JSON form of an ad creative.
	CreativeWire = httpapi.CreativeWire
	// CreateCampaignRequest creates a campaign over HTTP.
	CreateCampaignRequest = httpapi.CreateCampaignRequest
	// CreatePIIAudienceRequest uploads hashed PII over HTTP.
	CreatePIIAudienceRequest = httpapi.CreatePIIAudienceRequest
	// CreateWebsiteAudienceRequest builds a pixel audience over HTTP.
	CreateWebsiteAudienceRequest = httpapi.CreateWebsiteAudienceRequest
	// CreateEngagementAudienceRequest builds a page-liker audience.
	CreateEngagementAudienceRequest = httpapi.CreateEngagementAudienceRequest
	// CreateAffinityAudienceRequest builds a keyword audience.
	CreateAffinityAudienceRequest = httpapi.CreateAffinityAudienceRequest
	// CreateLookalikeAudienceRequest derives a similarity audience.
	CreateLookalikeAudienceRequest = httpapi.CreateLookalikeAudienceRequest
	// MatchKeyWire is the JSON form of a hashed PII key.
	MatchKeyWire = httpapi.MatchKeyWire
	// ImpressionWire is the JSON form of a feed impression.
	ImpressionWire = httpapi.ImpressionWire
	// ReportWire is the JSON form of a campaign report.
	ReportWire = httpapi.ReportWire
)
