package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Backend is the platform surface the HTTP server drives: the shared op
// set plus the three advertiser reads whose public form differs from a
// shard's (thresholded reach and report, where a shard has RawReach and
// CampaignTotals; the catalog search). *platform.Platform (in-memory, or
// write-ahead journaled and crash-recoverable) and *cluster.Cluster
// satisfy it, so the HTTP layer is agnostic to whether mutations are
// durable or sharded.
type Backend interface {
	platform.Ops
	Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error)
	PotentialReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error)
	SearchAttributes(query string) []*attr.Attribute
}

var _ Backend = (*platform.Platform)(nil)

// transparentPixelGIF is the classic 1x1 transparent GIF a tracking pixel
// endpoint serves.
var transparentPixelGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
}

// Server serves the platform over HTTP.
type Server struct {
	p            Backend
	mux          *http.ServeMux
	log          *log.Logger
	auth         *Authenticator // nil = open access (test/demo mode)
	compactor    Compactor      // nil = compaction endpoint disabled
	clusterAdmin ClusterAdmin   // nil = membership endpoints disabled
	metrics      *serverMetrics
	traceFetcher TraceFetcher // nil = local-ring-only trace dumps
}

// NewServer wraps a platform backend. logger may be nil to disable request
// logging. The server runs without authentication; use NewServerWithAuth
// for deployments. Request metrics register into obs.Default; use
// NewServerWithRegistry for an isolated registry.
func NewServer(p Backend, logger *log.Logger) *Server {
	return NewServerWithRegistry(p, logger, obs.Default)
}

// NewServerWithRegistry is NewServer with request metrics registered into
// reg instead of obs.Default, and reg served on GET /metrics. Tests that
// assert on counter values use this to avoid cross-test pollution.
func NewServerWithRegistry(p Backend, logger *log.Logger, reg *obs.Registry) *Server {
	s := &Server{p: p, mux: http.NewServeMux(), log: logger, metrics: newServerMetrics(reg)}
	s.routes()
	return s
}

// NewServerWithAuth wraps a platform backend with per-advertiser API-token
// authentication: advertiser registration returns a bearer token, and
// every advertiser-scoped endpoint requires it. The returned Authenticator
// must not be discarded by deployments that need operator access — admin
// endpoints (journal compaction) verify against its "admin" account.
func NewServerWithAuth(p Backend, logger *log.Logger) (*Server, *Authenticator) {
	s := &Server{p: p, mux: http.NewServeMux(), log: logger, auth: NewAuthenticator(),
		metrics: newServerMetrics(obs.Default)}
	s.routes()
	return s, s.auth
}

// handle registers a handler under pattern, wrapped in the request-metrics
// middleware. The pattern doubles as the route label: it is the only
// bounded-cardinality name for the route available on go 1.22 (the mux
// does not expose the matched pattern to handlers until go 1.23).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	rm := s.metrics.route(pattern)
	rm.spanName = "http " + pattern
	s.mux.HandleFunc(pattern, rm.wrap(h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.log != nil {
		s.log.Printf("%s %s", r.Method, r.URL.Path)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	// Advertiser API. Everything scoped to an account is gated on the
	// account's API token when authentication is enabled.
	s.handle("POST /api/v1/advertisers", s.handleRegisterAdvertiser)
	s.handle("POST /api/v1/advertisers/{name}/campaigns", s.requireAdvertiserAuth(s.handleCreateCampaign))
	s.handle("POST /api/v1/advertisers/{name}/campaigns/{id}/pause", s.requireAdvertiserAuth(s.handlePauseCampaign))
	s.handle("GET /api/v1/advertisers/{name}/campaigns/{id}/report", s.requireAdvertiserAuth(s.handleReport))
	s.handle("POST /api/v1/advertisers/{name}/audiences/pii", s.requireAdvertiserAuth(handleCreateAudience[CreatePIIAudienceRequest](s)))
	s.handle("POST /api/v1/advertisers/{name}/audiences/website", s.requireAdvertiserAuth(handleCreateAudience[CreateWebsiteAudienceRequest](s)))
	s.handle("POST /api/v1/advertisers/{name}/audiences/engagement", s.requireAdvertiserAuth(handleCreateAudience[CreateEngagementAudienceRequest](s)))
	s.handle("POST /api/v1/advertisers/{name}/audiences/affinity", s.requireAdvertiserAuth(handleCreateAudience[CreateAffinityAudienceRequest](s)))
	s.handle("POST /api/v1/advertisers/{name}/audiences/lookalike", s.requireAdvertiserAuth(handleCreateAudience[CreateLookalikeAudienceRequest](s)))
	s.handle("POST /api/v1/advertisers/{name}/pixels", s.requireAdvertiserAuth(s.handleIssuePixel))
	s.handle("POST /api/v1/advertisers/{name}/reach", s.requireAdvertiserAuth(s.handleReach))
	s.handle("GET /api/v1/attributes", s.handleSearchAttributes)

	// User API.
	s.handle("POST /api/v1/users/{id}/browse", s.handleBrowse)
	s.handle("GET /api/v1/users/{id}/feed", s.handleFeed)
	s.handle("GET /api/v1/users/{id}/adpreferences", s.handleAdPreferences)
	s.handle("GET /api/v1/users/{id}/advertisers", s.handleAdvertisersTargetingMe)
	s.handle("POST /api/v1/users/{id}/likes", s.handleLike)
	s.handle("POST /api/v1/users/{id}/explain", s.handleExplain)

	// The tracking-pixel endpoint: a GET for a 1x1 GIF, exactly how real
	// pixels work. The platform identifies the browsing user (here via
	// the uid query parameter standing in for the session cookie) and
	// records the visit; the site owner (the transparency provider)
	// learns nothing.
	s.handle("GET /pixel/{pixelID}", s.handlePixel)

	// Operator API. Always routed; returns 404 until a compactor is
	// configured (i.e. the daemon is running with -journal).
	s.handle("POST /admin/v1/compact", s.requireAdminAuth(s.handleCompact))

	// Dynamic membership. Always routed; returns 404 until a ClusterAdmin
	// is configured (i.e. the daemon is routing over remote shard nodes).
	s.handle("GET /admin/v1/cluster", s.requireAdminAuth(s.handleClusterStatus))
	s.handle("POST /admin/v1/cluster/shards", s.requireAdminAuth(s.handleClusterAddShard))
	s.handle("DELETE /admin/v1/cluster/shards", s.requireAdminAuth(s.handleClusterRemoveShard))
	s.handle("POST /admin/v1/cluster/promote", s.requireAdminAuth(s.handleClusterPromote))
	s.handle("POST /admin/v1/cluster/resume", s.requireAdminAuth(s.handleClusterResume))

	// Trace dump: assembled traces from this process's span ring plus,
	// when a fetcher is configured (router mode), every shard's ring.
	s.handle("GET /admin/v1/trace", s.requireAdminAuth(s.handleTraceDump))

	// Observability. Served from the raw mux: scraping /metrics must not
	// perturb the request counters it reports.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late to change the status; nothing more to do.
		_ = err
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// Unavailable is the class of backend error that says "not served now, may
// be on retry" rather than refusing the request: a shard that is down or
// mid-reshard, an RPC that found no peer. The packages under the HTTP layer
// declare those sentinels as values of this type, so errors.Is against each
// still holds and one errors.As here finds them all.
type Unavailable string

func (e Unavailable) Error() string { return string(e) }

// statusFor picks the status of a backend error: 503 on every route when an
// Unavailable is anywhere in its chain — an unreachable shard must not read
// as "unknown user" to the client, the 5xx request counters, or the
// gateway's shedding controller — and otherwise the route's own code for a
// refusal.
func statusFor(err error, fallback int) int {
	var u Unavailable
	if errors.As(err, &u) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 10<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleRegisterAdvertiser(w http.ResponseWriter, r *http.Request) {
	var req RegisterAdvertiserRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.p.RegisterAdvertiser(req.Name); err != nil {
		writeErr(w, statusFor(err, http.StatusConflict), err)
		return
	}
	resp := RegisterAdvertiserResponse{Name: req.Name}
	if s.auth != nil {
		tok, err := s.auth.Issue(req.Name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		resp.Token = tok
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req CreateCampaignRequest
	if !readJSON(w, r, &req) {
		return
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.p.CreateCampaign(name, platform.CampaignParams{
		Spec:         spec,
		BidCapCPM:    money.FromDollars(req.BidCapUSD),
		Creative:     req.Creative.ToCreative(),
		FrequencyCap: req.FrequencyCap,
		Budget:       money.FromDollars(req.BudgetUSD),
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, platform.ErrRejected) {
			status = http.StatusUnprocessableEntity
		}
		writeErr(w, statusFor(err, status), err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateCampaignResponse{CampaignID: id})
}

func (s *Server) handlePauseCampaign(w http.ResponseWriter, r *http.Request) {
	if err := s.p.PauseCampaign(r.PathValue("name"), r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"paused": true})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, err := s.p.Report(r.Context(), r.PathValue("name"), r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, FromReport(rep))
}

// handleCreateAudience serves the audience route whose request body is Req:
// the body decodes into a Def, and all five routes answer alike.
func handleCreateAudience[Req interface{ def() (audience.Def, error) }](s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !readJSON(w, r, &req) {
			return
		}
		d, err := req.def()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		id, err := s.p.CreateAudience(r.PathValue("name"), d)
		if err != nil {
			writeErr(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		writeJSON(w, http.StatusCreated, AudienceResponse{AudienceID: string(id)})
	}
}

func (s *Server) handleIssuePixel(w http.ResponseWriter, r *http.Request) {
	id, err := s.p.IssuePixel(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, PixelResponse{PixelID: string(id)})
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ReachRequest
	if !readJSON(w, r, &req) {
		return
	}
	spec, err := req.Spec.ToSpec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	reach, err := s.p.PotentialReach(r.Context(), name, spec)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, ReachResponse{Reach: reach})
}

func (s *Server) handleSearchAttributes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	hits := s.p.SearchAttributes(q)
	out := make([]AttributeWire, 0, len(hits))
	for _, a := range hits {
		out = append(out, FromAttribute(a))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	uid := profile.UserID(r.PathValue("id"))
	slots := 10
	if v := r.URL.Query().Get("slots"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > delivery.MaxSlots {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad slots %q", v))
			return
		}
		slots = n
	}
	imps, err := s.p.BrowseFeedCtx(r.Context(), uid, slots)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, FromImpressions(imps))
}

func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	imps, err := s.p.FeedCtx(r.Context(), profile.UserID(r.PathValue("id")))
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, FromImpressions(imps))
}

// FromImpressions converts a feed to the wire form; an empty feed is `[]`,
// not null. The shard RPC reuses it.
func FromImpressions(imps []ad.Impression) []ImpressionWire {
	out := make([]ImpressionWire, 0, len(imps))
	for _, i := range imps {
		out = append(out, FromImpression(i))
	}
	return out
}

func (s *Server) handleAdPreferences(w http.ResponseWriter, r *http.Request) {
	uid := profile.UserID(r.PathValue("id"))
	prefs, err := s.p.AdPreferences(uid)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	out := PreferencesResponse{Attributes: make([]string, 0, len(prefs))}
	for _, id := range prefs {
		out.Attributes = append(out.Attributes, string(id))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAdvertisersTargetingMe(w http.ResponseWriter, r *http.Request) {
	uid := profile.UserID(r.PathValue("id"))
	names, err := s.p.AdvertisersTargetingMe(uid)
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, AdvertisersResponse{Advertisers: names})
}

func (s *Server) handleLike(w http.ResponseWriter, r *http.Request) {
	uid := profile.UserID(r.PathValue("id"))
	var req LikeRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.p.LikePage(uid, req.PageID); err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"liked": true})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	uid := profile.UserID(r.PathValue("id"))
	var req ImpressionWire
	if !readJSON(w, r, &req) {
		return
	}
	ex, err := s.p.ExplainImpression(uid, req.ToImpression())
	if err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, ExplanationWire{Attribute: string(ex.Attribute), Text: ex.Text})
}

func (s *Server) handlePixel(w http.ResponseWriter, r *http.Request) {
	px := pixel.PixelID(r.PathValue("pixelID"))
	uid := profile.UserID(r.URL.Query().Get("uid"))
	if uid == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: pixel fire without uid (no platform session)"))
		return
	}
	if err := s.p.VisitPage(uid, px); err != nil {
		writeErr(w, statusFor(err, http.StatusNotFound), err)
		return
	}
	w.Header().Set("Content-Type", "image/gif")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(transparentPixelGIF); err != nil {
		_ = err // client went away; nothing to do
	}
}
