package index

import (
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// Package-level instrumentation, registered into obs.Default like the
// delivery and platform packages. Children are resolved once here; the hot
// query path touches only allocation-free Counter/Histogram operations.
var (
	buildSeconds = obs.Default.Histogram("index_build_seconds",
		"Time to bulk-build the inverted targeting index from a profile store.")
	querySeconds = obs.Default.Histogram("index_query_seconds",
		"Latency of indexed reach queries (compiled-plan popcounts).")
	memoryBytes = obs.Default.Gauge("index_memory_bytes",
		"Approximate heap footprint of the index: posting lists and its population bitmap.")

	updates = obs.Default.CounterVec("index_updates_total",
		"Incremental index maintenance operations by kind.", "kind")
	updAddUser     = updates.With("add_user")
	updAttrChange  = updates.With("attr_change")
	updLike        = updates.With("like")
	updAudienceBit = updates.With("audience_bit")

	reachQueries = obs.Default.CounterVec("index_reach_queries_total",
		"Reach/eligibility queries by evaluation path.", "path")
	queriesIndexed  = reachQueries.With("indexed")
	queriesFallback = reachQueries.With("fallback")
)

// MarkFallback counts a reach query that could not be answered from the
// index (geo targeting, unindexed audience kind) and fell back to the
// linear scan. Exported for the audience engine's fallback path.
func MarkFallback() { queriesFallback.Inc() }

// ObserveBuild records an externally timed bulk build — the audience
// engine's watcher-replay build goes through profile.Store.SetWatcher, so
// it times the replay and reports it here.
func ObserveBuild(d time.Duration) { buildSeconds.Observe(d) }
