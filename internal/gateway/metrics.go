package gateway

import "github.com/treads-project/treads/internal/obs"

// Gateway metrics. Per-class children are resolved once, at construction,
// into arrays indexed by Class, so the per-decision cost is atomic bumps
// only — the decision path must stay allocation-free (pinned by
// TestDecideZeroAlloc). Label
// cardinality is bounded by construction: three classes, and one
// gateway_tokens child per (tenant, class) where the tenant set is fixed
// by the key file.
type metrics struct {
	admitted [numClasses]*obs.Counter // gateway_admitted_total{class}
	limited  [numClasses]*obs.Counter // gateway_limited_total{class}
	shed     [numClasses]*obs.Counter // gateway_shed_total{class}
	latency  [numClasses]*obs.Histogram

	authFailures *obs.Counter
	quotaDenied  *obs.Counter
	inflight     *obs.Gauge
	hubDropped   *obs.Counter
	usageFlushes *obs.Counter
	keyReloads   *obs.Counter

	aimdBudget  *obs.Gauge
	aimdP99     *obs.Gauge
	aimdShrinks *obs.Counter
	aimdGrows   *obs.Counter

	tokens *obs.GaugeVec // children resolved per tenant below
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		authFailures: reg.Counter("gateway_auth_failures_total",
			"Requests rejected for a missing or unknown API key; any sustained nonzero rate means key rot or a stranger knocking."),
		quotaDenied: reg.Counter("gateway_quota_denied_total",
			"Requests refused because the tenant's byte quota is exhausted."),
		inflight: reg.Gauge("gateway_inflight",
			"Requests currently admitted through the gateway and not yet completed."),
		hubDropped: reg.Counter("gateway_hub_dropped_total",
			"Traffic events dropped because a subscriber's buffer was full."),
		usageFlushes: reg.Counter("gateway_usage_flushes_total",
			"Usage-ledger flushes appended to the journal."),
		keyReloads: reg.Counter("gateway_key_reloads_total",
			"Successful tenant key-file reloads via /admin/v1/keys/reload."),
		aimdBudget: reg.Gauge("gateway_aimd_budget",
			"Current total inflight budget as set by the AIMD controller (equals -gateway-inflight when the controller is disabled or fully grown)."),
		aimdP99: reg.Gauge("gateway_aimd_window_p99_seconds",
			"Backend p99 latency over the AIMD controller's most recent non-empty window — the signal the budget reacts to."),
		aimdShrinks: reg.Counter("gateway_aimd_shrinks_total",
			"AIMD windows that halved the inflight budget because windowed p99 exceeded the SLO or the backend returned 5xx."),
		aimdGrows: reg.Counter("gateway_aimd_grows_total",
			"AIMD windows that additively grew the inflight budget after a healthy window."),
		tokens: reg.GaugeVec("gateway_tokens",
			"Token-bucket balance remaining after the most recent decision, by tenant and class.",
			"tenant", "class"),
	}
	admitted := reg.CounterVec("gateway_admitted_total",
		"Requests admitted through the gateway, by traffic class.", "class")
	limited := reg.CounterVec("gateway_limited_total",
		"Requests refused with 429 because the tenant's token bucket was empty, by traffic class.", "class")
	shed := reg.CounterVec("gateway_shed_total",
		"Requests refused with 503 by priority load shedding, by traffic class.", "class")
	latency := reg.HistogramVec("gateway_request_seconds",
		"Admitted-request latency through the gateway, by traffic class — the per-class SLO signal.", "class")
	for c := Class(0); c < numClasses; c++ {
		m.admitted[c] = admitted.With(c.String())
		m.limited[c] = limited.With(c.String())
		m.shed[c] = shed.With(c.String())
		m.latency[c] = latency.With(c.String())
	}
	return m
}

// resolveTokenGauges binds each tenant's gateway_tokens children. Called
// once at construction; the decision path only ever calls Gauge.Set.
func (m *metrics) resolveTokenGauges(ks *KeySet) {
	bind := func(t *Tenant) {
		for c := Class(0); c < numClasses; c++ {
			t.tokens[c] = m.tokens.With(t.name, c.String())
		}
	}
	for _, t := range ks.Tenants() {
		bind(t)
	}
	bind(ks.UserTenant())
}
