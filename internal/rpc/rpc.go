// Package rpc is the shard transport: it carries the cluster.Shard
// operation surface between a router and remote shard nodes over
// HTTP/JSON, using only the standard library.
//
// The wire protocol is deliberately boring — versioned POST endpoints
// (/rpc/v1/<op>) with JSON bodies, shared-secret bearer auth compared in
// constant time, and hard length limits in both directions — because the
// correctness stakes are high: the paper's trust boundary lets the
// provider see only audience-level aggregates, and the cluster enforces
// that boundary by summing *exact* per-shard counts before thresholding.
// A transport that silently dropped, duplicated, or truncated a shard's
// answer would corrupt those aggregates, so every failure mode maps to a
// distinct typed error and nothing is ever partially applied on the
// client side.
//
// The client side adds the machinery a scatter-gather coordinator needs
// against a lossy network: pooled connections, per-call deadlines, retries
// with exponential backoff and jitter on idempotent operations (mutations
// are retried only when the connection was refused outright, i.e. the
// request provably never reached the shard), and a consecutive-failure
// circuit breaker with a half-open probe so a dead peer fails fast instead
// of burning deadlines.
package rpc

import (
	"errors"
	"fmt"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/trace"
)

// Version is the wire-protocol version segment in every endpoint path. A
// peer speaking a different version answers 404, which the client reports
// as ErrMalformed rather than retrying forever.
const Version = "v1"

// PathPrefix is the URL prefix every RPC endpoint lives under.
const PathPrefix = "/rpc/" + Version + "/"

// MaxBody caps request and response bodies in both directions. Large
// enough for a bulk PII-audience upload, small enough that a corrupt
// length can't balloon memory.
const MaxBody = 8 << 20

// Transport failure classes. Every error a Client returns wraps exactly
// one of these sentinels (or is a *RemoteError, an application-level
// refusal from the shard itself), so callers can errors.Is their way to
// the cause: auth misconfiguration, a peer that answered garbage, a
// deadline, a dead connection, or a breaker failing fast. The last three,
// like ErrStaleRing, are httpapi.Unavailable values: a front end answers
// them 503, not with the route's refusal code.
var (
	// ErrAuth is a 401 from the peer: wrong or missing shared secret.
	// Never retried — the config is wrong, not the network.
	ErrAuth = errors.New("rpc: unauthorized")
	// ErrMalformed is a response that could not be understood: bad JSON,
	// an over-length body, or a protocol-level status (404 unknown op,
	// 400 bad request, 413 too large) that means the peers disagree about
	// the protocol.
	ErrMalformed = errors.New("rpc: malformed response")
	// ErrTimeout is a call that exceeded its deadline.
	ErrTimeout error = httpapi.Unavailable("rpc: deadline exceeded")
	// ErrUnavailable is a transport-level failure: connection refused or
	// dropped, or a 5xx from the peer's HTTP layer.
	ErrUnavailable error = httpapi.Unavailable("rpc: peer unavailable")
	// ErrCircuitOpen is a fast failure: the peer's breaker is open after
	// repeated failures and the cooldown has not elapsed.
	ErrCircuitOpen error = httpapi.Unavailable("rpc: circuit open")
)

// CallError is the error a Client returns for any failed call: the peer
// and operation for operators, the HTTP status when a response arrived,
// how many tries were spent, and the underlying cause (one of the
// sentinels above, or the wrapped network error). Unwrap exposes the
// cause to errors.Is.
type CallError struct {
	Peer     string
	Op       string
	Status   int // 0 when no HTTP response was received
	Attempts int
	Err      error
}

func (e *CallError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("rpc: %s %s: status %d after %d attempt(s): %v", e.Peer, e.Op, e.Status, e.Attempts, e.Err)
	}
	return fmt.Sprintf("rpc: %s %s: after %d attempt(s): %v", e.Peer, e.Op, e.Attempts, e.Err)
}

func (e *CallError) Unwrap() error { return e.Err }

// RemoteError is an application-level refusal from the shard — the
// platform said no (unknown advertiser, rejected creative, duplicate
// user), the transport worked fine. The message is the shard's original
// error text, so refusal semantics survive the network hop.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }

// --- wire types ---
//
// Wherever the public HTTP API already defines a JSON form (impressions,
// creatives, targeting specs, match keys, the minted IDs, preferences,
// explanations, registration), the RPC reuses it, so there is exactly one wire representation of each domain type in
// the repo. Money travels as micros (int64), never float dollars: shard
// totals are summed at the router and must stay exact.

// errorBody is the JSON error envelope (same shape as the advertiser
// API's).
type errorBody struct {
	Error string `json:"error"`
}

// UserIDReq addresses a user-scoped operation.
type UserIDReq struct {
	UserID string `json:"user_id"`
}

// AddUserReq carries a full profile snapshot.
type AddUserReq struct {
	Profile profile.State `json:"profile"`
}

// UserResp returns a profile snapshot, or null for an unknown user.
type UserResp struct {
	Profile *profile.State `json:"profile"`
}

// UsersResp lists every user ID on the shard.
type UsersResp struct {
	Users []string `json:"users"`
}

// BrowseReq runs a feed session.
type BrowseReq struct {
	UserID string `json:"user_id"`
	Slots  int    `json:"slots"`
}

// ImpressionsResp returns feed impressions.
type ImpressionsResp struct {
	Impressions []httpapi.ImpressionWire `json:"impressions"`
}

// VisitReq records a pixel fire.
type VisitReq struct {
	UserID  string `json:"user_id"`
	PixelID string `json:"pixel_id"`
}

// LikeReq records a page like.
type LikeReq struct {
	UserID string `json:"user_id"`
	PageID string `json:"page_id"`
}

// NamesResp returns a plain name list (advertisers-targeting-me surface).
type NamesResp struct {
	Names []string `json:"names"`
}

// ExplainReq asks for the "why am I seeing this?" text.
type ExplainReq struct {
	UserID     string                 `json:"user_id"`
	Impression httpapi.ImpressionWire `json:"impression"`
}

// CampaignParamsWire is the JSON form of platform.CampaignParams.
type CampaignParamsWire struct {
	Spec         SpecWire             `json:"spec"`
	BidCapMicros int64                `json:"bid_cap_micros,omitempty"`
	Creative     httpapi.CreativeWire `json:"creative"`
	FrequencyCap int                  `json:"frequency_cap,omitempty"`
	BudgetMicros int64                `json:"budget_micros,omitempty"`
}

// FromCampaignParams converts to the wire form.
func FromCampaignParams(p platform.CampaignParams) CampaignParamsWire {
	return CampaignParamsWire{
		Spec:         FromSpec(p.Spec),
		BidCapMicros: int64(p.BidCapCPM),
		Creative:     httpapi.FromCreative(p.Creative),
		FrequencyCap: p.FrequencyCap,
		BudgetMicros: int64(p.Budget),
	}
}

// ToParams converts from the wire form.
func (w CampaignParamsWire) ToParams() (platform.CampaignParams, error) {
	spec, err := w.Spec.ToSpec()
	if err != nil {
		return platform.CampaignParams{}, err
	}
	return platform.CampaignParams{
		Spec:         spec,
		BidCapCPM:    money.Micros(w.BidCapMicros),
		Creative:     w.Creative.ToCreative(),
		FrequencyCap: w.FrequencyCap,
		Budget:       money.Micros(w.BudgetMicros),
	}, nil
}

// SpecWire aliases the advertiser API's audience-spec JSON form.
type SpecWire = httpapi.SpecWire

// FromSpec converts an audience.Spec to the wire form, serializing the
// targeting expression through its canonical textual syntax.
func FromSpec(s audience.Spec) SpecWire {
	var w SpecWire
	for _, id := range s.Include {
		w.Include = append(w.Include, string(id))
	}
	for _, id := range s.IncludeAll {
		w.IncludeAll = append(w.IncludeAll, string(id))
	}
	for _, id := range s.Exclude {
		w.Exclude = append(w.Exclude, string(id))
	}
	if s.Expr != nil {
		w.Expr = s.Expr.String()
	}
	return w
}

// CreateCampaignReq registers a campaign.
type CreateCampaignReq struct {
	Advertiser string             `json:"advertiser"`
	Params     CampaignParamsWire `json:"params"`
}

// CampaignReq addresses an existing campaign.
type CampaignReq struct {
	Advertiser string `json:"advertiser"`
	CampaignID string `json:"campaign_id"`
}

// CreateAudienceReq creates one custom audience; the op names its kind.
type CreateAudienceReq struct {
	Advertiser string `json:"advertiser"`
	httpapi.AudienceWire
}

// AdvertiserReq addresses an advertiser-scoped operation with no other
// inputs (pixel issuance).
type AdvertiserReq struct {
	Advertiser string `json:"advertiser"`
}

// RawReachReq asks for the exact pre-threshold match count.
type RawReachReq struct {
	Advertiser string   `json:"advertiser"`
	Spec       SpecWire `json:"spec"`
}

// RawReachResp is the exact count. It crosses the trust boundary only
// router→shard: the router sums counts across shards and applies the
// advertiser-visible threshold once, so no advertiser ever sees it.
type RawReachResp struct {
	Count int `json:"count"`
}

// CampaignTotalsResp is the mergeable form of a report, spend in micros.
type CampaignTotalsResp struct {
	Impressions int   `json:"impressions"`
	Reach       int   `json:"reach"`
	SpendMicros int64 `json:"spend_micros"`
}

// ToTotals converts from the wire form.
func (w CampaignTotalsResp) ToTotals() platform.CampaignTotals {
	return platform.CampaignTotals{
		Impressions: w.Impressions,
		Reach:       w.Reach,
		Spend:       money.Micros(w.SpendMicros),
	}
}

// HealthResp is the shard's liveness answer: a readiness bit plus the
// cheap introspection a router logs when gating startup. Replica fields
// appear only on journaled backends that are (or were) following.
type HealthResp struct {
	OK        bool   `json:"ok"`
	Users     int    `json:"users"`
	LastLSN   uint64 `json:"last_lsn,omitempty"`
	Following bool   `json:"following,omitempty"`
	Synced    bool   `json:"synced,omitempty"`
	ShipLSN   uint64 `json:"ship_lsn,omitempty"`
}

// TraceSpansResp carries one process's completed-span ring, which the
// router stitches into its own when serving GET /admin/v1/trace. Spans
// are already in wire form; the router merges by trace ID.
type TraceSpansResp struct {
	Spans []trace.SpanWire `json:"spans,omitempty"`
}

// convertIDs converts IDs between string kinds. Empty stays nil so a
// round trip is observationally identical to the platform's own answer —
// the cluster equivalence tests compare with reflect.DeepEqual, which
// distinguishes nil from a zero-length slice.
func convertIDs[To, From ~string](ids []From) []To {
	if len(ids) == 0 {
		return nil
	}
	out := make([]To, len(ids))
	for i, id := range ids {
		out[i] = To(id)
	}
	return out
}

// ToImpressions converts wire impressions back, preserving nil-ness like
// convertIDs.
func ToImpressions(ws []httpapi.ImpressionWire) []ad.Impression {
	if len(ws) == 0 {
		return nil
	}
	out := make([]ad.Impression, len(ws))
	for i, w := range ws {
		out[i] = w.ToImpression()
	}
	return out
}
