package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
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
// endpoints verify against its AdminAccount.
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

// routes registers every row of the route table, then the two routes whose
// answers are not one JSON value.
func (s *Server) routes() {
	for _, rt := range Routes {
		s.handle(rt.Pattern, s.serve(rt))
	}

	// Trace dump: assembled traces from this process's span ring plus,
	// when a fetcher is configured (router mode), every shard's ring.
	s.handle("GET /admin/v1/trace", s.handleTraceDump)

	// Observability. Served from the raw mux: scraping /metrics must not
	// perturb the request counters it reports.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// serve answers one request of the row: the scope check, the parameters,
// then the row's own body, backend call and answer, or the error's status.
func (s *Server) serve(rt *RouteInfo) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := s.admit(rt.Scope, r)
		var p Params
		if err == nil {
			p, err = rt.params(r)
		}
		if err == nil {
			err = rt.answer(call{Server: s, r: r, Params: p}, w)
		}
		if err != nil {
			writeErr(w, statusFor(err, rt.Refused), err)
		}
	}
}

// admit checks the caller against a scope: with authentication on, the
// account's token on an advertiser route and the operator's on an admin
// one; and that the server has what a Compaction or Membership route
// drives.
func (s *Server) admit(scope Scope, r *http.Request) error {
	switch scope {
	case Advertiser:
		if name := r.PathValue("name"); s.auth != nil && !s.auth.Verify(name, BearerToken(r)) {
			return withStatus(http.StatusUnauthorized, fmt.Errorf("httpapi: missing or invalid API token for advertiser %q", name))
		}
	case Admin, Compaction, Membership:
		if s.auth != nil && !s.auth.Verify(AdminAccount, BearerToken(r)) {
			return withStatus(http.StatusUnauthorized, errors.New("httpapi: missing or invalid admin token"))
		}
		if scope == Compaction && s.compactor == nil {
			return withStatus(http.StatusNotFound, errors.New("httpapi: no journal configured (run with -journal)"))
		}
		if scope == Membership && s.clusterAdmin == nil {
			return withStatus(http.StatusNotFound, errors.New("httpapi: no dynamic membership on this server (run as a router with -peers)"))
		}
	}
	return nil
}

// params reads the request's path wildcards and the row's query parameter.
func (rt *RouteInfo) params(r *http.Request) (Params, error) {
	p := Params{Name: r.PathValue("name"), ID: r.PathValue("id"), PixelID: r.PathValue("pixelID")}
	if rt.Query == "" {
		return p, nil
	}
	v := r.URL.Query().Get(rt.Query)
	switch rt.Query {
	case "slots":
		p.Slots = 10
		if v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || n > delivery.MaxSlots {
				return p, badRequest(fmt.Errorf("httpapi: bad slots %q", v))
			}
			p.Slots = n
		}
	case "q":
		p.Q = v
	case "uid":
		if v == "" {
			return p, badRequest(errors.New("httpapi: pixel fire without uid (no platform session)"))
		}
		p.UID = v
	}
	return p, nil
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

// statusError is an error that carries its status: one about the request
// itself (its credentials, its body or parameters, a route this server does
// not serve) or a backend answer a row tells apart from its refusals.
type statusError struct {
	status int
	err    error
}

func (e statusError) Error() string { return e.err.Error() }
func (e statusError) Unwrap() error { return e.err }

func withStatus(status int, err error) error { return statusError{status, err} }

func badRequest(err error) error { return statusError{http.StatusBadRequest, err} }

// statusFor picks the status of an error: 503 on every route when an
// Unavailable is anywhere in its chain — an unreachable shard must not read
// as "unknown user" to the client, the 5xx request counters, or the
// gateway's shedding controller — then the status the error carries, and
// otherwise the route's own code for a refusal.
func statusFor(err error, refused int) int {
	var u Unavailable
	if errors.As(err, &u) {
		return http.StatusServiceUnavailable
	}
	var se statusError
	if errors.As(err, &se) {
		return se.status
	}
	return refused
}

// readJSON decodes the body into v: one JSON value, unknown fields refused,
// and nothing after it but whitespace.
func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 10<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		return badRequest(fmt.Errorf("httpapi: bad request body: %w", err))
	}
	return nil
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
