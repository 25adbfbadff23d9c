package health

import "github.com/treads-project/treads/internal/obs"

// Metrics is the health_* instrument set shared by a supervisor's probe
// loops.
type Metrics struct {
	Probes           *obs.Counter
	ProbeFailures    *obs.Counter
	Transitions      *obs.Counter
	SlotsDown        *obs.Gauge
	Failovers        *obs.Counter
	FailoverFailures *obs.Counter
	Heals            *obs.Counter
	HealFailures     *obs.Counter
	DetectToPromote  *obs.Histogram
}

// NewMetrics registers the health families on reg; a nil reg gives
// instruments that are exported nowhere (tests, embedded harnesses).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Probes: reg.Counter("health_probes_total",
			"Owner health probes sent by the failure-detector loops."),
		ProbeFailures: reg.Counter("health_probe_failures_total",
			"Owner health probes that failed or timed out."),
		Transitions: reg.Counter("health_state_transitions_total",
			"Detector state changes (up/suspect/down) across all watched slots."),
		SlotsDown: reg.Gauge("health_slots_down",
			"Watched slots currently holding a down verdict awaiting promotion."),
		Failovers: reg.Counter("health_failovers_total",
			"Automatic follower promotions completed by the supervisor."),
		FailoverFailures: reg.Counter("health_failover_failures_total",
			"Automatic promotion attempts that failed (no eligible follower yet); retried every probe tick."),
		Heals: reg.Counter("health_heals_total",
			"Degraded replica chains healed by the supervisor (returning stale owners demoted and resynced)."),
		HealFailures: reg.Counter("health_heal_failures_total",
			"Heal attempts that failed; retried on a later tick."),
		DetectToPromote: reg.Histogram("health_detect_to_promote_seconds",
			"Elapsed time from an owner's down verdict to the completed automatic promotion."),
	}
}
