package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/trace"
)

func traceGateway(t *testing.T, rate float64) (*Gateway, *trace.Tracer) {
	t.Helper()
	tr := trace.NewTracer(trace.Options{
		Service:    "gateway-test",
		SampleRate: rate,
		RingSize:   64,
		Seed:       1,
		Registry:   obs.NewRegistry(),
	})
	g, _ := newTestGateway(t, nil, nil)
	g.tracer = tr
	return g, tr
}

// A valid sampled traceparent from an upstream edge must continue that
// trace: the gateway span joins the caller's trace ID, parents under the
// caller's span, and the response echoes the trace ID so the client can
// quote it against /admin/v1/trace.
func TestGatewayContinuesInboundTraceparent(t *testing.T) {
	g, tr := traceGateway(t, 1)
	const (
		tid    = "4bf92f3577b34da6a3ce929d0e0e4736"
		parent = "00f067aa0ba902b7"
	)
	r := httptest.NewRequest("POST", "/api/v1/users/user-1/browse", nil)
	r.Header.Set("Traceparent", "00-"+tid+"-"+parent+"-01")
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", w.Code)
	}
	if got := w.Header().Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want the inbound trace ID %q", got, tid)
	}
	spans := tr.WireSnapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "gateway" || sp.TraceID != tid || sp.Parent != parent {
		t.Fatalf("gateway span = %s trace %s parent %s; want gateway/%s/%s", sp.Name, sp.TraceID, sp.Parent, tid, parent)
	}
}

// A malformed traceparent must not poison the trace: the gateway ignores
// it, starts a fresh root, and still echoes the (new) trace ID.
func TestGatewayIgnoresMalformedTraceparent(t *testing.T) {
	g, tr := traceGateway(t, 1)
	for _, hdr := range []string{
		"00-zzzz-1111-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"garbage",
	} {
		r := httptest.NewRequest("POST", "/api/v1/users/user-1/browse", nil)
		r.Header.Set("Traceparent", hdr)
		w := httptest.NewRecorder()
		g.ServeHTTP(w, r)
		got := w.Header().Get("X-Trace-Id")
		if len(got) != 32 {
			t.Fatalf("header %q: X-Trace-Id = %q, want a fresh 32-hex trace ID", hdr, got)
		}
	}
	for _, sp := range tr.WireSnapshot() {
		if sp.Parent != "" {
			t.Fatalf("malformed traceparent produced a parented span: %+v", sp)
		}
	}
}

// An unsampled inbound decision (flag 00) is honored — no span, no
// X-Trace-Id — and with sampling off entirely the echo never appears, so
// the header is an exact sampled-request marker.
func TestGatewayHonorsUnsampledRequests(t *testing.T) {
	g, tr := traceGateway(t, 0)
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, hdr := range []string{"", "00-" + tid + "-00f067aa0ba902b7-00"} {
		r := httptest.NewRequest("POST", "/api/v1/users/user-1/browse", nil)
		if hdr != "" {
			r.Header.Set("Traceparent", hdr)
		}
		w := httptest.NewRecorder()
		g.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d, want 200", w.Code)
		}
		if got := w.Header().Get("X-Trace-Id"); got != "" {
			t.Fatalf("unsampled request echoed X-Trace-Id %q", got)
		}
	}
	if spans := tr.WireSnapshot(); len(spans) != 0 {
		t.Fatalf("unsampled requests recorded %d spans", len(spans))
	}
}
