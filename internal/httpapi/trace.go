package httpapi

import (
	"context"
	"encoding/json"
	"net/http"

	"github.com/treads-project/treads/internal/trace"
)

// TraceFetcher pulls completed spans out of remote shard processes so the
// router can serve assembled cross-process traces. *cluster.Cluster
// satisfies it; single-process deployments leave it unset and the dump
// covers the local ring only.
type TraceFetcher interface {
	RemoteTraceSpans(ctx context.Context) []trace.SpanWire
}

// SetTraceFetcher enables cross-process stitching on GET /admin/v1/trace:
// the dump merges every shard's span ring into the local one before
// grouping. Call before serving requests.
func (s *Server) SetTraceFetcher(f TraceFetcher) { s.traceFetcher = f }

// handleTraceDump serves GET /admin/v1/trace: one NDJSON line per
// assembled trace, oldest first, each line a TraceWire holding every
// completed span that shares the trace ID — local ring plus remote shard
// rings when a fetcher is configured. ?trace_id=<32 hex> narrows the dump
// to one trace (how treads-chaos pulls the trace behind a violation).
// Admin-gated: spans carry route patterns, shard indices, and error
// strings — operator diagnostics, not an advertiser surface.
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	spans := trace.Default.WireSnapshot()
	if s.traceFetcher != nil {
		spans = append(spans, s.traceFetcher.RemoteTraceSpans(r.Context())...)
	}
	want := r.URL.Query().Get("trace_id")
	traces := trace.GroupTraces(spans)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, t := range traces {
		if want != "" && t.TraceID != want {
			continue
		}
		if err := enc.Encode(t); err != nil {
			return // client went away mid-stream
		}
	}
}
