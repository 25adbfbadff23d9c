// Package gateway is the platform's multi-tenant production edge: it
// fronts the public HTTP API with per-advertiser API keys, per-tenant
// token-bucket rate limits split by traffic class, billing-grade usage
// metering behind a journaled ledger, and priority admission control that
// sheds reporting and mutation traffic before it ever degrades user
// ad-serving.
//
// The decomposition follows the gateway/meter/store/hub shape of
// production API-management cores: key resolution (keys.go), rate
// limiting (bucket.go), admission (shed.go), metering + ledger
// (meter.go), and a live traffic-event hub (hub.go), composed by the
// Gateway handler here. The per-request decision path — resolve, bucket,
// quota, admit — is allocation-free; TestDecideZeroAlloc pins that and
// Benchmark{ResolveKey,DecideAdmit,DecideLimited} time it.
package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/trace"
)

// Config parameterizes a Gateway.
type Config struct {
	// Keys is the parsed tenant key set. Required.
	Keys *KeySet
	// Inflight is the total admitted-request budget shared by all
	// classes (default 256). Reporting traffic may hold at most half of
	// it, mutations 80%, user traffic all of it. When SLO is set this is
	// the AIMD controller's ceiling rather than a fixed budget.
	Inflight int
	// SLO, when positive, replaces the fixed inflight budget with an
	// AIMD controller driven by measured backend latency: the budget
	// halves within one control window of p99 exceeding SLO or the
	// backend returning 5xx, and grows additively back toward Inflight
	// while windows stay healthy. Zero keeps the budget fixed at
	// Inflight — the pre-controller behavior.
	SLO time.Duration
	// UsageDir is the journaled usage ledger's directory; empty meters
	// in memory only (usage resets on restart).
	UsageDir string
	// Registry receives the gateway metric families (default
	// obs.Default).
	Registry *obs.Registry
	// Authorize, when set, gates the gateway's own admin endpoints
	// (/admin/v1/usage, /admin/v1/traffic, /admin/v1/keys/reload). Nil
	// leaves them open, matching the rest of the stack's test/demo mode.
	Authorize func(*http.Request) bool
	// Now is the decision clock (default time.Now; tests inject).
	Now func() time.Time
	// KeysPath, when set, enables POST /admin/v1/keys/reload: the key
	// file at this path is re-read and swapped in atomically. Empty
	// leaves the endpoint answering 404.
	KeysPath string
}

// Gateway is the edge handler. It wraps an inner handler (the public
// API server) and serves two endpoints of its own: GET /admin/v1/usage
// (the metering report) and GET /admin/v1/traffic (the live decision
// stream).
type Gateway struct {
	inner     http.Handler
	keys      atomic.Pointer[KeySet]
	shed      *shedder
	aimd      *aimdController // nil unless Config.SLO > 0
	meter     *Meter
	hub       *Hub
	m         *metrics
	authorize func(*http.Request) bool
	now       func() time.Time
	keysPath  string
	tracer    *trace.Tracer
}

// usageFlushEvery bounds how much metered usage a crash can lose.
const usageFlushEvery = 2 * time.Second

// shedRetryAfter is the Retry-After clients are told on 503: long enough
// to drain a burst, short enough that a recovered gateway refills fast.
const shedRetryAfter = time.Second

// New builds a Gateway in front of inner.
func New(inner http.Handler, cfg Config) (*Gateway, error) {
	if cfg.Keys == nil {
		return nil, fmt.Errorf("gateway: Config.Keys is required")
	}
	if cfg.Inflight == 0 {
		cfg.Inflight = 256
	}
	if cfg.Inflight < 1 {
		return nil, fmt.Errorf("gateway: Inflight must be positive, got %d", cfg.Inflight)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := newMetrics(cfg.Registry)
	m.resolveTokenGauges(cfg.Keys)
	meter, err := newMeter(cfg.Keys, cfg.UsageDir, usageFlushEvery, cfg.Registry, m.usageFlushes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		inner:     inner,
		shed:      newShedder(cfg.Inflight),
		meter:     meter,
		hub:       NewHub(m.hubDropped),
		m:         m,
		authorize: cfg.Authorize,
		now:       cfg.Now,
		keysPath:  cfg.KeysPath,
		tracer:    trace.Default,
	}
	g.keys.Store(cfg.Keys)
	m.aimdBudget.Set(float64(g.shed.budget()))
	if cfg.SLO > 0 {
		g.aimd = newAIMD(g.shed, m, cfg.SLO, cfg.Inflight)
		go g.aimd.run()
	}
	return g, nil
}

// SetTracer overrides the gateway's tracer, trace.Default until then (nil
// disables tracing). Call before serving requests.
func (g *Gateway) SetTracer(t *trace.Tracer) { g.tracer = t }

// Close stops the AIMD controller (if running) and flushes and closes
// the usage ledger.
func (g *Gateway) Close() error {
	if g.aimd != nil {
		g.aimd.close()
	}
	return g.meter.Close()
}

// Hub returns the traffic-event hub, for subscribers beyond the HTTP
// stream (tests, embedded dashboards).
func (g *Gateway) Hub() *Hub { return g.hub }

// Meter returns the usage meter.
func (g *Gateway) Meter() *Meter { return g.meter }

// Keys returns the live tenant key set (the most recent reload wins).
func (g *Gateway) Keys() *KeySet { return g.keys.Load() }

// InflightBudget returns the current total inflight budget — fixed at
// Config.Inflight, or wherever the AIMD controller has moved it.
func (g *Gateway) InflightBudget() int64 { return g.shed.budget() }

// Decide runs the admission decision for one request of class c by
// tenant t: token bucket, then byte quota, then the priority inflight
// budget. On VerdictAdmitted the caller owns an inflight slot and must
// call Release exactly once when the request completes. The path
// performs no allocation — it is the hot edge in front of every
// request.
func (g *Gateway) Decide(t *Tenant, c Class) Decision {
	ok, remaining, wait := t.buckets[c].take(g.now().UnixNano())
	t.tokens[c].Set(remaining)
	if !ok {
		g.m.limited[c].Inc()
		t.usage.limited.Add(1)
		return Decision{Verdict: VerdictLimited, RetryAfter: wait}
	}
	if t.quota > 0 && t.usage.bytesOut.Load() >= uint64(t.quota) {
		g.m.quotaDenied.Inc()
		t.usage.quotaDenied.Add(1)
		return Decision{Verdict: VerdictQuota, RetryAfter: time.Minute}
	}
	if !g.shed.acquire(c) {
		g.m.shed[c].Inc()
		t.usage.shed.Add(1)
		return Decision{Verdict: VerdictShed, RetryAfter: shedRetryAfter}
	}
	g.m.admitted[c].Inc()
	g.m.inflight.Add(1)
	return Decision{Verdict: VerdictAdmitted}
}

// Release returns the inflight slot an admitted Decision acquired.
func (g *Gateway) Release() {
	g.shed.release()
	g.m.inflight.Add(-1)
}

// Decision is the outcome of Decide.
type Decision struct {
	Verdict    Verdict
	RetryAfter time.Duration
}

// apiKey extracts the tenant credential: the X-API-Key header, falling
// back to a Bearer token for clients that reuse their Authorization
// plumbing.
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(h, prefix) {
		return strings.TrimSpace(h[len(prefix):])
	}
	return ""
}

// errorResponse matches the inner API's error body shape, so clients
// parse gateway refusals with the same code path as application errors.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRefusal maps a non-admitted decision onto the wire: 429 or 503,
// Retry-After in whole seconds rounded up (a 200ms wait must not round
// to "retry now"), and the taxonomy sentinel's message as the body.
func writeRefusal(w http.ResponseWriter, d Decision) {
	if d.RetryAfter > 0 {
		secs := int64((d.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, d.Verdict.Status(), errorResponse{Error: d.Verdict.Err().Error()})
}

// ServeHTTP implements the edge: classify, authenticate, decide, and
// either refuse with the mapped status or forward to the inner handler
// while metering bytes and latency.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/admin/v1/usage":
			g.handleUsage(w, r)
			return
		case "/admin/v1/traffic":
			g.handleTraffic(w, r)
			return
		}
	}
	if r.Method == http.MethodPost && r.URL.Path == "/admin/v1/keys/reload" {
		g.handleKeysReload(w, r)
		return
	}

	class, group, exempt := classify(r.Method, r.URL.Path)
	if exempt {
		g.inner.ServeHTTP(w, r)
		return
	}

	// The edge owns the trace's head decision: continue a validated
	// inbound traceparent or sample a fresh root. Sampled requests echo
	// their trace ID so an external caller can correlate a response with
	// the assembled trace; unsampled requests pass through untouched and
	// allocation-free.
	r, sp := g.startSpan(w, r)

	ks := g.keys.Load()
	var t *Tenant
	if group.keyless() {
		t = ks.UserTenant()
	} else if t = ks.Resolve(apiKey(r)); t == nil {
		g.m.authFailures.Inc()
		if sp != nil {
			sp.Annotate("verdict", "unauthenticated")
			sp.Finish()
		}
		g.publish(Event{
			UnixNanos: g.now().UnixNano(),
			Class:     class.String(),
			Route:     group.String(),
			Decision:  "unauthenticated",
			Status:    http.StatusUnauthorized,
		})
		writeJSON(w, http.StatusUnauthorized, errorResponse{Error: ErrUnauthenticated.Error()})
		return
	}

	d := g.Decide(t, class)
	if d.Verdict != VerdictAdmitted {
		if sp != nil {
			sp.Annotate("tenant", t.name)
			sp.Annotate("class", class.String())
			sp.Annotate("verdict", d.Verdict.String())
			sp.Finish()
		}
		writeRefusal(w, d)
		g.publish(Event{
			UnixNanos:  g.now().UnixNano(),
			Tenant:     t.name,
			Class:      class.String(),
			Route:      group.String(),
			Decision:   d.Verdict.String(),
			Status:     d.Verdict.Status(),
			RetryAfter: d.RetryAfter.Milliseconds(),
		})
		return
	}

	start := g.now()
	cw := countingWriter{ResponseWriter: w, status: http.StatusOK}
	g.inner.ServeHTTP(&cw, r)
	elapsed := g.now().Sub(start)
	g.Release()
	g.m.latency[class].Observe(elapsed)
	if g.aimd != nil {
		g.aimd.observe(elapsed, cw.status)
	}

	t.usage.requests[group].Add(1)
	if r.ContentLength > 0 {
		t.usage.bytesIn.Add(uint64(r.ContentLength))
	}
	t.usage.bytesOut.Add(uint64(cw.n))

	if sp != nil {
		sp.Annotate("tenant", t.name)
		sp.Annotate("class", class.String())
		sp.Annotate("verdict", "admitted")
		sp.Annotate("status", strconv.Itoa(cw.status))
		sp.Finish()
	} else if tr := g.tracer; tr != nil {
		// Unsampled requests that turned out to matter get a forced
		// synthetic span; the trigger checks run before any attr exists.
		if cw.status >= 500 {
			tr.Force("gateway", "error", start, elapsed,
				trace.Attr{Key: "tenant", Value: t.name},
				trace.Attr{Key: "status", Value: strconv.Itoa(cw.status)})
		} else if tr.Slow(elapsed) {
			tr.Force("gateway", "slow", start, elapsed,
				trace.Attr{Key: "tenant", Value: t.name},
				trace.Attr{Key: "status", Value: strconv.Itoa(cw.status)})
		}
	}

	g.publish(Event{
		UnixNanos: g.now().UnixNano(),
		Tenant:    t.name,
		Class:     class.String(),
		Route:     group.String(),
		Decision:  "admitted",
		Status:    cw.status,
		LatencyUS: elapsed.Microseconds(),
	})
}

// startSpan opens the edge span, honoring a validated inbound
// traceparent, and echoes X-Trace-Id on sampled responses.
func (g *Gateway) startSpan(w http.ResponseWriter, r *http.Request) (*http.Request, *trace.Span) {
	tr := g.tracer
	if tr == nil {
		return r, nil
	}
	r, sp := tr.StartServer(r, "gateway")
	if sp != nil {
		tid, _ := sp.IDs()
		w.Header().Set("X-Trace-Id", tid.String())
	}
	return r, sp
}

// publish forwards to the hub; split out so the handler body reads as
// the decision sequence.
func (g *Gateway) publish(e Event) { g.hub.Publish(e) }

// countingWriter meters response bytes and captures the status for
// traffic events.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it streams, so wrapping
// never breaks a flushing inner handler.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admin returns whether r may use the gateway's operator endpoints.
func (g *Gateway) admin(w http.ResponseWriter, r *http.Request) bool {
	if g.authorize != nil && !g.authorize(r) {
		writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "gateway: missing or invalid admin credentials"})
		return false
	}
	return true
}

// handleUsage serves GET /admin/v1/usage: every tenant's cumulative
// metered usage with quota context — the billing export.
func (g *Gateway) handleUsage(w http.ResponseWriter, r *http.Request) {
	if !g.admin(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tenants map[string]usageSnapshot `json:"tenants"`
	}{g.meter.Report(g.keys.Load())})
}

// SwapKeys atomically installs ks as the live key set. Usage counters
// carry over by tenant name, so billing survives a rotation; token
// buckets start full at the new limits (a reload is an operator action,
// not a traffic event — briefly regranting a burst is the safe
// direction). Requests already past Resolve finish against the tenant
// objects they hold.
func (g *Gateway) SwapKeys(ks *KeySet) {
	g.m.resolveTokenGauges(ks)
	g.meter.adopt(ks)
	g.keys.Store(ks)
}

// handleKeysReload serves POST /admin/v1/keys/reload: re-read the key
// file the gateway was started with and swap it in. A file that fails to
// parse or validate leaves the running set untouched — a bad edit must
// never take the edge down.
func (g *Gateway) handleKeysReload(w http.ResponseWriter, r *http.Request) {
	if !g.admin(w, r) {
		return
	}
	if g.keysPath == "" {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "gateway: no key file path configured (run with -keys)"})
		return
	}
	ks, err := LoadKeyFile(g.keysPath, g.now())
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	g.SwapKeys(ks)
	g.m.keyReloads.Inc()
	writeJSON(w, http.StatusOK, struct {
		Tenants int `json:"tenants"`
	}{len(ks.Tenants())})
}

// handleTraffic serves GET /admin/v1/traffic: an NDJSON stream of live
// admission decisions, one Event per line, until the client disconnects.
func (g *Gateway) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if !g.admin(w, r) {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "gateway: streaming unsupported by server"})
		return
	}
	ch, cancel := g.hub.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
