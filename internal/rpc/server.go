package rpc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/trace"
)

// Backend is what a shard serves over RPC: the shared op set
// (platform.Ops), population management, and the exact aggregates a
// coordinator merges before thresholding. cluster.Shard is this plus the
// catalog reads (the attribute catalog is compiled into every binary, so
// routers answer those locally instead of shipping the catalog over the
// wire). *platform.Platform and *platform.Journaled satisfy it.
type Backend interface {
	platform.Ops

	AddUser(*profile.Profile) error
	User(profile.UserID) *profile.Profile
	Users() []profile.UserID

	// Aggregate reads (scatter-gathered and merged at the cluster edge),
	// under the coordinator's context so its deadline bounds the fan-out.
	RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error)
	CampaignTotals(ctx context.Context, advertiser, campaignID string) (platform.CampaignTotals, error)
}

var (
	_ Backend = (*platform.Platform)(nil)
	_ Backend = (*platform.Journaled)(nil)
)

// protoError marks a request the server could not even parse; it maps to
// 400 instead of the 422 application refusals get, so clients never
// confuse "I spoke the protocol wrong" with "the shard said no".
type protoError struct{ err error }

func (e protoError) Error() string { return e.err.Error() }

// opHandler decodes one operation's body, runs it, and returns the
// response value to serialize.
type opHandler func(ctx context.Context, body []byte) (any, error)

// Server exposes a shard backend over the versioned HTTP/JSON transport.
// It is an http.Handler; mount it as the root handler of a shard node's
// listener. All endpoints demand the shared secret (constant-time
// compared) when one is configured.
type Server struct {
	b        Backend
	secret   string
	mux      *http.ServeMux
	handlers map[string]opHandler
	m        *serverMetrics
	// gate, when set, is consulted before every user-scoped operation; a
	// refusal maps to 409 so clients see ErrStaleRing and refresh their
	// membership instead of retrying blindly.
	gate atomic.Pointer[MembershipGate]
	// rearm, when set, handles the rearm op: rebuild this node's
	// journal-shipping chain onto the given follower addresses. Installed
	// by the daemon so an automatic promotion re-arms replication without
	// a process restart.
	rearm atomic.Pointer[func(followers []string) error]
	// tr overrides the tracer (tests); nil means trace.Default.
	tr atomic.Pointer[trace.Tracer]
}

// SetTracer overrides the tracer used to continue inbound traces and to
// answer the tracespans op; nil restores trace.Default.
func (s *Server) SetTracer(t *trace.Tracer) { s.tr.Store(t) }

func (s *Server) tracer() *trace.Tracer {
	if t := s.tr.Load(); t != nil {
		return t
	}
	return trace.Default
}

// SetGate installs the membership gate (nil-safe to skip; see
// MembershipGate). Safe to call while serving.
func (s *Server) SetGate(g MembershipGate) {
	if g == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&g)
}

// SetRearm installs the handler for the rearm op (nil disables it).
// Safe to call while serving.
func (s *Server) SetRearm(fn func(followers []string) error) {
	if fn == nil {
		s.rearm.Store(nil)
		return
	}
	s.rearm.Store(&fn)
}

// NewServer wraps a shard backend. secret "" disables authentication
// (tests only — production shard nodes must set one). registry nil leaves
// the server instrumented against unregistered metrics.
func NewServer(b Backend, secret string, registry *obs.Registry) *Server {
	s := &Server{
		b:        b,
		secret:   secret,
		mux:      http.NewServeMux(),
		handlers: make(map[string]opHandler),
		m:        newServerMetrics(registry),
	}
	s.register()
	s.mux.HandleFunc("GET "+PathPrefix+healthOp, s.handleHealth)
	s.mux.HandleFunc("POST "+PathPrefix+"{op}", s.handleOp)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// authorized enforces the shared secret.
func (s *Server) authorized(w http.ResponseWriter, r *http.Request) bool {
	if s.secret == "" {
		return true
	}
	if !httpapi.SecretEqual(s.secret, httpapi.BearerToken(r)) {
		s.m.authFailures.Inc()
		writeRPCError(w, http.StatusUnauthorized, "missing or invalid shard secret")
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(w, r) {
		return
	}
	if hr, ok := s.b.(platform.HealthReporter); ok && !hr.Healthy() {
		writeRPCError(w, http.StatusServiceUnavailable, "shard reports itself unhealthy")
		return
	}
	resp := HealthResp{OK: true, Users: len(s.b.Users())}
	if m, ok := s.b.(platform.Member); ok {
		st, err := m.FollowStatus()
		if err != nil {
			writeRPCError(w, http.StatusServiceUnavailable, "reading follow status: "+err.Error())
			return
		}
		resp.LastLSN, resp.Following, resp.Synced, resp.ShipLSN = st.LastLSN, st.Following, st.Synced, st.ShipLSN
	}
	writeRPCJSON(w, http.StatusOK, resp)
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer s.m.requestSeconds.ObserveSince(start)
	if !s.authorized(w, r) {
		return
	}
	op := r.PathValue("op")
	h, ok := s.handlers[op]
	if !ok {
		writeRPCError(w, http.StatusNotFound, fmt.Sprintf("unknown op %q", op))
		return
	}
	s.m.ops.With(op).Inc()
	// Continue the caller's trace when the request carries a valid
	// sampled traceparent; requests without one stay spanless here —
	// the head decision belongs to the root process, and an unsampled
	// call must stay free on this side of the wire too.
	ctx := r.Context()
	var sp *trace.Span
	if tid, parent, ok := trace.Extract(r.Header); ok {
		ctx, sp = s.tracer().StartRemote(ctx, "rpc.server "+op, tid, parent)
		defer sp.Finish()
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody+1))
	if err != nil {
		s.m.errs.With(op).Inc()
		sp.SetError(err)
		writeRPCError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	if len(body) > MaxBody {
		s.m.errs.With(op).Inc()
		writeRPCError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request exceeds %d bytes", MaxBody))
		return
	}
	resp, err := h(ctx, body)
	if err != nil {
		s.m.errs.With(op).Inc()
		sp.SetError(err)
		if pe, ok := err.(protoError); ok {
			writeRPCError(w, http.StatusBadRequest, pe.Error())
			return
		}
		if se, ok := err.(staleErr); ok {
			// Ownership refusal: 409 tells the client its ring is stale and
			// the op was not applied; the cluster layer refreshes and
			// re-routes exactly once.
			writeRPCError(w, http.StatusConflict, se.Error())
			return
		}
		// Application refusal: 422 keeps it distinct from every
		// transport-level status, so the client re-raises it as a
		// *RemoteError with the shard's own message.
		writeRPCError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeRPCJSON(w, http.StatusOK, resp)
}

// serve registers an op's handler: decode Req, check the ownership its
// scope demands, run, reply Resp. No handler consults the gate itself. Any
// member of the user's slot may serve a read, but a write only the slot's
// owner — a deposed owner demoted to replica refuses retried writes with
// 409/ErrStaleRing instead of applying them.
func serve[Req, Resp any](s *Server, op Op[Req, Resp], fn func(ctx context.Context, req Req) (Resp, error)) {
	s.handlers[op.Name] = func(ctx context.Context, body []byte) (any, error) {
		var req Req
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, protoError{fmt.Errorf("decoding %s request: %w", op.Name, err)}
			}
		}
		if g := s.gate.Load(); g != nil && op.user != nil {
			owns := (*g).OwnsUser
			if op.Scope == UserWrite {
				owns = (*g).OwnsUserWrite
			}
			if err := owns(op.user(&req)); err != nil {
				return nil, staleErr{err}
			}
		}
		return fn(ctx, req)
	}
}

// empty is the body of an op with no request or no answer; it travels as
// no body at all.
type empty = struct{}

// register wires every op of the table (ops.go) to its handler.
func (s *Server) register() {
	serve(s, OpAddUser, func(_ context.Context, req AddUserReq) (empty, error) {
		p, err := profile.FromState(req.Profile)
		if err != nil {
			return empty{}, protoError{err}
		}
		return empty{}, s.b.AddUser(p)
	})
	serve(s, OpUser, func(_ context.Context, req UserIDReq) (UserResp, error) {
		p := s.b.User(profile.UserID(req.UserID))
		if p == nil {
			return UserResp{}, nil
		}
		st := p.Snapshot()
		return UserResp{Profile: &st}, nil
	})
	serve(s, OpUsers, func(_ context.Context, _ empty) (UsersResp, error) {
		return UsersResp{Users: FromUserIDs(s.b.Users())}, nil
	})
	serve(s, OpBrowse, func(ctx context.Context, req BrowseReq) (ImpressionsResp, error) {
		imps, err := s.b.BrowseFeedCtx(ctx, profile.UserID(req.UserID), req.Slots)
		return ImpressionsResp{Impressions: httpapi.FromImpressions(imps)}, err
	})
	serve(s, OpFeed, func(ctx context.Context, req UserIDReq) (ImpressionsResp, error) {
		imps, err := s.b.FeedCtx(ctx, profile.UserID(req.UserID))
		return ImpressionsResp{Impressions: httpapi.FromImpressions(imps)}, err
	})
	serve(s, OpVisit, func(_ context.Context, req VisitReq) (empty, error) {
		return empty{}, s.b.VisitPage(profile.UserID(req.UserID), pixel.PixelID(req.PixelID))
	})
	serve(s, OpLike, func(_ context.Context, req LikeReq) (empty, error) {
		return empty{}, s.b.LikePage(profile.UserID(req.UserID), req.PageID)
	})
	serve(s, OpAdPreferences, func(_ context.Context, req UserIDReq) (AttrIDsResp, error) {
		ids, err := s.b.AdPreferences(profile.UserID(req.UserID))
		return AttrIDsResp{Attributes: attrIDs(ids)}, err
	})
	serve(s, OpAdvertisers, func(_ context.Context, req UserIDReq) (NamesResp, error) {
		names, err := s.b.AdvertisersTargetingMe(profile.UserID(req.UserID))
		return NamesResp{Names: names}, err
	})
	serve(s, OpExplain, func(_ context.Context, req ExplainReq) (ExplainResp, error) {
		ex, err := s.b.ExplainImpression(profile.UserID(req.UserID), req.Impression.ToImpression())
		return ExplainResp{Attribute: string(ex.Attribute), Text: ex.Text}, err
	})

	serve(s, OpRegister, func(_ context.Context, req RegisterReq) (empty, error) {
		return empty{}, s.b.RegisterAdvertiser(req.Name)
	})
	serve(s, OpCreateCampaign, func(_ context.Context, req CreateCampaignReq) (CampaignIDResp, error) {
		params, err := req.Params.ToParams()
		if err != nil {
			return CampaignIDResp{}, protoError{err}
		}
		id, err := s.b.CreateCampaign(req.Advertiser, params)
		return CampaignIDResp{CampaignID: id}, err
	})
	serve(s, OpPauseCampaign, func(_ context.Context, req CampaignReq) (empty, error) {
		return empty{}, s.b.PauseCampaign(req.Advertiser, req.CampaignID)
	})
	serve(s, OpCreatePIIAudience, func(_ context.Context, req CreatePIIAudienceReq) (AudienceIDResp, error) {
		keys := make([]pii.MatchKey, 0, len(req.Keys))
		for _, kw := range req.Keys {
			k, err := kw.ToMatchKey()
			if err != nil {
				return AudienceIDResp{}, protoError{err}
			}
			keys = append(keys, k)
		}
		id, err := s.b.CreatePIIAudience(req.Advertiser, req.Name, keys)
		return AudienceIDResp{AudienceID: string(id)}, err
	})
	serve(s, OpCreateWebsiteAudience, func(_ context.Context, req CreateWebsiteAudienceReq) (AudienceIDResp, error) {
		id, err := s.b.CreateWebsiteAudience(req.Advertiser, req.Name, pixel.PixelID(req.PixelID))
		return AudienceIDResp{AudienceID: string(id)}, err
	})
	serve(s, OpCreateEngagementAudience, func(_ context.Context, req CreateEngagementAudienceReq) (AudienceIDResp, error) {
		id, err := s.b.CreateEngagementAudience(req.Advertiser, req.Name, req.PageID)
		return AudienceIDResp{AudienceID: string(id)}, err
	})
	serve(s, OpCreateAffinityAudience, func(_ context.Context, req CreateAffinityAudienceReq) (AudienceIDResp, error) {
		id, err := s.b.CreateAffinityAudience(req.Advertiser, req.Name, req.Phrases)
		return AudienceIDResp{AudienceID: string(id)}, err
	})
	serve(s, OpCreateLookalikeAudience, func(_ context.Context, req CreateLookalikeAudienceReq) (AudienceIDResp, error) {
		id, err := s.b.CreateLookalikeAudience(req.Advertiser, req.Name, audience.AudienceID(req.Seed), req.Overlap)
		return AudienceIDResp{AudienceID: string(id)}, err
	})
	serve(s, OpIssuePixel, func(_ context.Context, req AdvertiserReq) (PixelIDResp, error) {
		id, err := s.b.IssuePixel(req.Advertiser)
		return PixelIDResp{PixelID: string(id)}, err
	})

	serve(s, OpRawReach, func(ctx context.Context, req RawReachReq) (RawReachResp, error) {
		spec, err := req.Spec.ToSpec()
		if err != nil {
			return RawReachResp{}, protoError{err}
		}
		n, err := s.b.RawReach(ctx, req.Advertiser, spec)
		return RawReachResp{Count: n}, err
	})
	serve(s, OpCampaignTotals, func(ctx context.Context, req CampaignReq) (CampaignTotalsResp, error) {
		t, err := s.b.CampaignTotals(ctx, req.Advertiser, req.CampaignID)
		return CampaignTotalsResp{Impressions: t.Impressions, Reach: t.Reach, SpendMicros: int64(t.Spend)}, err
	})
	// The shard's span ring, so the router can assemble cross-process
	// traces; the ring snapshot never blocks writers.
	serve(s, OpTraceSpans, func(_ context.Context, _ empty) (TraceSpansResp, error) {
		return TraceSpansResp{Spans: s.tracer().WireSnapshot()}, nil
	})
	s.registerElastic()
}

func writeRPCJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRPCError(w http.ResponseWriter, status int, msg string) {
	writeRPCJSON(w, status, errorBody{Error: msg})
}
