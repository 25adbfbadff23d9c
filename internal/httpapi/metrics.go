package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/trace"
)

// Request metrics. Every route registered through Server.handle is wrapped
// in middleware that counts the request by status class and observes its
// latency, labeled by the route *pattern* (never the concrete path — path
// segments carry user and advertiser IDs, and metrics must stay
// aggregate-only). Label cardinality is therefore fixed at registration
// time: one histogram child per route, six status-class counters per
// route, all resolved once so the per-request work is two atomic bumps,
// one histogram observe, and one gauge swing.

// serverMetrics is a Server's handle on its registry's HTTP families.
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // http_requests_total{route,status}
	latency  *obs.HistogramVec // http_request_seconds{route}
	inflight *obs.Gauge        // http_inflight_requests
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route pattern and status class.",
			"route", "status"),
		latency: reg.HistogramVec("http_request_seconds",
			"HTTP request latency by route pattern, handler time inclusive of backend work.",
			"route"),
		inflight: reg.Gauge("http_inflight_requests",
			"HTTP requests currently being handled."),
	}
}

// statusClasses are the status label values, indexed by status/100 (0 =
// anything outside 100..599, which a correct handler never produces).
var statusClasses = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

func statusClassIndex(code int) int {
	if idx := code / 100; idx >= 1 && idx <= 5 {
		return idx
	}
	return 0
}

// routeMetrics is the pre-resolved instrumentation for one route pattern.
type routeMetrics struct {
	latency  *obs.Histogram
	status   [6]*obs.Counter
	inflight *obs.Gauge

	// Tracing rides the same wrapper, into trace.Default, so the sampled
	// path reuses the timer and status capture the metrics already pay
	// for. spanName is precomputed per route ("http " + pattern) so the
	// unsampled path never concatenates.
	spanName string
}

func (sm *serverMetrics) route(pattern string) *routeMetrics {
	rm := &routeMetrics{
		latency:  sm.latency.With(pattern),
		inflight: sm.inflight,
	}
	for i, class := range statusClasses {
		rm.status[i] = sm.requests.With(pattern, class)
	}
	return rm
}

// wrap instruments a handler with the route's metrics and tracing.
func (rm *routeMetrics) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rm.inflight.Add(1)
		start := time.Now()
		sw := statusWriter{ResponseWriter: w, code: http.StatusOK}
		r, sp := rm.startSpan(r)
		h(&sw, r)
		d := time.Since(start)
		rm.latency.Observe(d)
		rm.status[statusClassIndex(sw.code)].Inc()
		rm.inflight.Add(-1)
		rm.finishSpan(sp, sw.code, start, d)
	}
}

// startSpan opens the route span: a child when an in-process layer (the
// gateway) already started one on the request context, otherwise a
// server-side root that honors an inbound traceparent. Unsampled
// requests pass through allocation-free.
func (rm *routeMetrics) startSpan(r *http.Request) (*http.Request, *trace.Span) {
	if trace.FromContext(r.Context()) != nil {
		ctx, sp := trace.StartChild(r.Context(), rm.spanName)
		return r.WithContext(ctx), sp
	}
	return trace.Default.StartServer(r, rm.spanName)
}

// finishSpan closes a sampled route span with its status, or — for the
// unsampled requests that turned out to matter — records a forced span:
// 5xx responses and requests over the tracer's slow threshold. Trigger
// checks run before any attr is built, keeping the common unsampled
// path allocation-free.
func (rm *routeMetrics) finishSpan(sp *trace.Span, code int, start time.Time, d time.Duration) {
	if sp != nil {
		sp.Annotate("status", strconv.Itoa(code))
		if code >= 500 {
			sp.Event("error")
		}
		sp.Finish()
		return
	}
	tr := trace.Default
	if code >= 500 {
		tr.Force(rm.spanName, "error", start, d,
			trace.Attr{Key: "status", Value: strconv.Itoa(code)})
	} else if tr.Slow(d) {
		tr.Force(rm.spanName, "slow", start, d,
			trace.Attr{Key: "status", Value: strconv.Itoa(code)})
	}
}

// statusWriter captures the status code a handler writes. Handlers that
// never call WriteHeader implicitly send 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handleMetrics serves GET /metrics: the server's registry in Prometheus
// text format. The endpoint itself is not instrumented, so scrapes do not
// pollute the request counters they read. Everything exported is an
// aggregate — the same trust boundary as the advertiser API: no user IDs,
// no per-user counts, no audience memberships.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
