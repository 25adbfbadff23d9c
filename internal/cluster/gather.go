package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/trace"
)

// ErrShardUnavailable marks operations refused because a shard's transport
// is down (its circuit breaker is open or its health probe fails). It is
// surfaced instead of partial results: a scatter-gather that silently
// skipped a shard would report wrong totals, and a user-scoped write that
// silently dropped would lose acknowledged state. errors.Is against this
// sentinel distinguishes "the cluster is degraded" from application
// refusals, and as an httpapi.Unavailable it is answered 503, not 404.
var ErrShardUnavailable error = httpapi.Unavailable("cluster: shard unavailable")

// checkAllHealthy returns ErrShardUnavailable (wrapped with the slot
// index) if no member of some slot can serve. Exact scatter-gather needs
// every slot; failing fast here beats burning the full call deadline
// against a peer known to be dead.
func checkAllHealthy(shards []*ReplicaSet) error {
	for i, rs := range shards {
		if !rs.Healthy() {
			return fmt.Errorf("shard %d: %w", i, ErrShardUnavailable)
		}
	}
	return nil
}

// gather runs an aggregate read: fn once per slot of one membership value,
// on the slot's reader, and the answers in slot order. It holds the reshard
// fence read-side, so the value cannot straddle a cutover — the window in
// which a migrating user briefly exists on two shards — and it refuses
// while a finished cutover still has source removals outstanding, for the
// same reason: exact totals require each user counted exactly once.
//
// At most c.workers calls run at once; the bound keeps a wide cluster's
// fan-out from spawning one goroutine per shard per request under load.
// The context bounds the whole fan-out: remote shards propagate it into
// their RPCs, and a shard whose circuit is open fails the gather up front
// with ErrShardUnavailable rather than returning silently wrong totals.
// Wall time for the whole fan-out — dominated by the slowest shard — lands
// in cluster_gather_seconds. The error is the join of the per-shard errors.
func gather[T any](ctx context.Context, c *Cluster, fn func(context.Context, Shard) (T, error)) (out []T, err error) {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	m := c.mem.Load()
	if len(m.pending) > 0 {
		return nil, ErrReshardIncomplete
	}
	shards := m.slots
	start := time.Now()
	defer c.m.gatherSeconds.ObserveSince(start)
	ctx, sp := trace.StartChild(ctx, "cluster.gather")
	if sp != nil {
		sp.Annotate("shards", strconv.Itoa(len(shards)))
		defer func() {
			sp.SetError(err)
			sp.Finish()
		}()
	}
	if err = checkAllHealthy(shards); err != nil {
		return nil, err
	}
	out = make([]T, len(shards))
	errs := make([]error, len(shards))
	fanOut(len(shards), c.workers, func(i int) { out[i], errs[i] = fn(ctx, shards[i].reader()) })
	return out, errors.Join(errs...)
}

// PotentialReach scatter-gathers the exact per-shard match counts and
// applies the advertiser-visible threshold and rounding once, on the sum.
// Users are partitioned, so per-shard counts are disjoint and the sum is
// the exact cluster-wide audience size; thresholding per shard instead
// would report 0 for any audience spread thinner than MinReportableReach
// per shard and would leak the partition layout through rounding seams.
func (c *Cluster) PotentialReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	counts, err := gather(ctx, c, func(ctx context.Context, s Shard) (int, error) {
		return s.RawReach(ctx, advertiser, spec)
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return audience.ReportableReach(total), nil
}

// Report scatter-gathers each shard's exact campaign totals and derives
// the advertiser-visible report from the merged totals with the default
// billing thresholds — exactly what one big ledger would report, because
// per-shard reaches are disjoint (users live on one shard) and impressions
// and spend are additive.
func (c *Cluster) Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error) {
	totals, err := gather(ctx, c, func(ctx context.Context, s Shard) (platform.CampaignTotals, error) {
		return s.CampaignTotals(ctx, advertiser, campaignID)
	})
	if err != nil {
		return billing.Report{}, err
	}
	var merged platform.CampaignTotals
	for _, t := range totals {
		merged.Impressions += t.Impressions
		merged.Reach += t.Reach
		merged.Spend += t.Spend
	}
	return billing.MakeReport(campaignID, merged.Impressions, merged.Reach, merged.Spend, billing.ReachReportThreshold), nil
}

// RemoteTraceSpans collects completed spans from every shard process,
// follower processes included. Collection is best-effort diagnostics: a
// down or spanless shard contributes nothing rather than failing the dump,
// because a trace query must keep working exactly when parts of the
// cluster are unhealthy.
func (c *Cluster) RemoteTraceSpans(ctx context.Context) []trace.SpanWire {
	var out []trace.SpanWire
	for _, rs := range c.mem.Load().slots {
		for _, m := range rs.state.Load().members {
			if !m.Healthy() {
				continue
			}
			if spans, err := m.TraceSpans(ctx); err == nil {
				out = append(out, spans...)
			}
		}
	}
	return out
}
