package rpc

import (
	"github.com/treads-project/treads/internal/obs"
)

// serverMetrics instruments one shard-side RPC server. The op set is fixed,
// so the per-op families' cardinality is bounded; the request path resolves
// its child with CounterVec.With, a read-locked map lookup.
type serverMetrics struct {
	requestSeconds *obs.Histogram
	authFailures   *obs.Counter
	ops            *obs.CounterVec
	errs           *obs.CounterVec
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requestSeconds: reg.Histogram("rpc_server_request_seconds",
			"Shard-side RPC handling time, auth check through response write."),
		authFailures: reg.Counter("rpc_server_auth_failures_total",
			"RPC requests rejected for a missing or wrong shard secret. Nonzero means a misconfigured router or an unwanted caller."),
		ops: reg.CounterVec("rpc_server_requests_total",
			"Shard RPC requests served, by operation.", "op"),
		errs: reg.CounterVec("rpc_server_errors_total",
			"Shard RPC requests answered with an error (protocol or application), by operation.", "op"),
	}
}

// clientMetrics instruments one peer's client: every family carries the
// peer's host:port label, so a router's /metrics separates the slow shard
// from the healthy ones. Children are resolved once, at client
// construction.
type clientMetrics struct {
	requests       *obs.Counter
	errors         *obs.Counter
	requestSeconds *obs.Histogram
	retries        *obs.Counter
	hedges         *obs.Counter
	circuitOpened  *obs.Counter
	circuitState   *obs.Gauge
}

func newClientMetrics(reg *obs.Registry, peer string) *clientMetrics {
	return &clientMetrics{
		requests: reg.CounterVec("rpc_client_requests_total",
			"RPC attempts sent to each peer (retries and hedges count individually).", "peer").With(peer),
		errors: reg.CounterVec("rpc_client_errors_total",
			"RPC attempts against each peer that failed (any cause).", "peer").With(peer),
		requestSeconds: reg.HistogramVec("rpc_client_request_seconds",
			"Per-attempt RPC latency against each peer.", "peer").With(peer),
		retries: reg.CounterVec("rpc_client_retries_total",
			"Retry attempts issued against each peer after a retryable failure.", "peer").With(peer),
		hedges: reg.CounterVec("rpc_client_hedges_total",
			"Hedged duplicate reads issued against each peer to cut tail latency.", "peer").With(peer),
		circuitOpened: reg.CounterVec("rpc_client_circuit_open_total",
			"Times each peer's circuit breaker opened after consecutive failures.", "peer").With(peer),
		circuitState: reg.GaugeVec("rpc_client_circuit_state",
			"Current breaker state per peer: 0 closed (healthy), 1 open (failing fast).", "peer").With(peer),
	}
}
