package chaos

import (
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/faults"
)

// A control run — crashes and restarts but zero disk/net faults — must
// account exactly: no failures means no indeterminacy, so the merged
// recovered totals must equal the acknowledged impressions to the unit.
func TestChaosControlRunIsExact(t *testing.T) {
	cfg := faultFree(DefaultConfig(11))
	cfg.CrashProb = 0.5 // crash plenty; the forced crash guarantees ≥ 1 anyway
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("control run violated invariants (dir kept at %s)", res.Dir)
	}
	if res.IndeterminateSlots != 0 || res.DefiniteFailures != 0 {
		t.Fatalf("control run saw failures: %d indeterminate slots, %d definite", res.IndeterminateSlots, res.DefiniteFailures)
	}
	if res.AckedImpressions == 0 {
		t.Fatal("control run delivered nothing; the workload is not exercising delivery")
	}
	if res.Crashes == 0 {
		t.Fatal("control run never crashed a shard")
	}
	// Every round is tagged with a trace whose events record the round's
	// decisions; the binary dumps these when a run fails.
	if len(res.Traces) != cfg.Rounds {
		t.Fatalf("run carries %d round traces, want one per round (%d)", len(res.Traces), cfg.Rounds)
	}
	crashEvents := 0
	for i, tw := range res.Traces {
		if len(tw.Spans) == 0 {
			t.Fatalf("round %d trace has no spans", i)
		}
		root := tw.Spans[0]
		if root.Name != "chaos.round" || root.Service != "chaos" {
			t.Fatalf("round %d root span = %s/%s, want chaos.round/chaos", i, root.Name, root.Service)
		}
		for _, ev := range root.Events {
			if strings.HasPrefix(ev.Name, "crash-recover") {
				crashEvents++
			}
		}
	}
	if crashEvents != res.Crashes {
		t.Fatalf("round traces record %d crash events, result counted %d crashes", crashEvents, res.Crashes)
	}
}

// The full disk-fault mix across several seeds: recovery must hold the
// invariants on every schedule, and the coverage check inside Run fails
// the run if a configured fault kind never reached its seam.
func TestChaosDiskFaultSeeds(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := DefaultConfig(seed)
		cfg.Logf = t.Logf
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			for _, v := range res.Violations {
				t.Errorf("seed %d violation: %s", seed, v)
			}
			t.Fatalf("seed %d violated invariants (dir kept at %s)", seed, res.Dir)
		}
		t.Logf("seed %d: ops=%d acked=%d crashes=%d faults=%v", seed, res.Ops, res.AckedImpressions, res.Crashes, res.Faults)
	}
}

// Same seed, single worker: the entire run — operations, fault schedule,
// crash decisions, final counts — must reproduce exactly. This is what
// makes a failing seed printed by the chaos binary actionable.
func TestChaosSameSeedReproducesSchedule(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig(5)
		cfg.Workers = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Failed() {
			t.Fatalf("violations: %v", res.Violations)
		}
		return res
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.AckedImpressions != b.AckedImpressions ||
		a.Crashes != b.Crashes || a.IndeterminateSlots != b.IndeterminateSlots {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatalf("fault schedules diverged: %v vs %v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Opportunities, b.Opportunities) {
		t.Fatalf("opportunity counts diverged: %v vs %v", a.Opportunities, b.Opportunities)
	}
}

// Replica chains under a fault-free schedule: every round kills one
// slot's owner mid-traffic and promotes a follower, and because nothing
// else can fail, the accounting must stay exact — writes during each
// failover window are refused definitely (never indeterminately), every
// acknowledged impression survives the promotion, and the healed
// followers end byte-identical to their owners.
func TestChaosReplicaFailoverControlIsExact(t *testing.T) {
	cfg := faultFree(DefaultConfig(13))
	cfg.Replicas = 1
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("replica control run: %v", err)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("replica control run violated invariants (dir kept at %s)", res.Dir)
	}
	if res.OwnerKills != cfg.Rounds {
		t.Fatalf("killed %d owners over %d rounds, want one per round", res.OwnerKills, cfg.Rounds)
	}
	if res.Promotions != res.OwnerKills {
		t.Fatalf("%d kills but %d promotions; with healthy followers every kill must be answered", res.OwnerKills, res.Promotions)
	}
	if res.IndeterminateSlots != 0 {
		t.Fatalf("fault-free failover run left %d slots indeterminate; owner-down writes must refuse definitely", res.IndeterminateSlots)
	}
	if res.DefiniteFailures == 0 {
		t.Fatal("no write was ever refused during a failover window; the kill schedule is not biting")
	}
	if res.AckedImpressions == 0 {
		t.Fatal("replica run delivered nothing")
	}
}

// Same seed, replicas attached: the kill/promote schedule is part of the
// deterministic replay contract — two runs must agree on every count. The
// router's links carry no faults here: a failed follower-status probe keeps
// the follower out of the read rotation for a wall-clock TTL, so under link
// faults which member serves a read depends on timing (ROADMAP item 6(b)).
func TestChaosReplicaSameSeedReproduces(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig(19)
		cfg.Link = faults.NetConfig{}
		cfg.PartitionProb = 0
		cfg.Replicas = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Failed() {
			t.Fatalf("violations: %v (dir kept at %s)", res.Violations, res.Dir)
		}
		return res
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.AckedImpressions != b.AckedImpressions ||
		a.Crashes != b.Crashes || a.IndeterminateSlots != b.IndeterminateSlots ||
		a.OwnerKills != b.OwnerKills || a.Promotions != b.Promotions ||
		a.PlacementHash != b.PlacementHash {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatalf("fault schedules diverged: %v vs %v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Opportunities, b.Opportunities) {
		t.Fatalf("opportunity counts diverged: %v vs %v", a.Opportunities, b.Opportunities)
	}
}

// Automatic failover, fault-free control: every round the kill schedule
// takes one owner down and NOTHING scripts the recovery — the health
// supervisor must detect the miss streak, declare the owner dead, and
// promote the best follower on its own, after which the harness drives a
// post-promotion batch to prove the cluster serves with no admin call in
// the loop. With disk faults off every kill must be answered, the
// accounting must be exact (owner-down writes refuse definitely), and
// each promotion's detect→promote latency must be recorded and positive.
func TestChaosAutoFailoverRecoversWithoutAdmin(t *testing.T) {
	cfg := faultFree(DefaultConfig(23))
	cfg.Replicas = 2
	cfg.AutoFailover = true
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("auto-failover run: %v", err)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("auto-failover run violated invariants (dir kept at %s)", res.Dir)
	}
	if res.OwnerKills != cfg.Rounds {
		t.Fatalf("killed %d owners over %d rounds, want one per round", res.OwnerKills, cfg.Rounds)
	}
	// Every kill must be answered by the supervisor; a sticky-journal
	// owner elsewhere may legitimately trigger extra promotions, so the
	// bound is one-sided.
	if res.Promotions < res.OwnerKills {
		t.Fatalf("%d kills but only %d supervisor promotions", res.OwnerKills, res.Promotions)
	}
	if len(res.FailoverLatencies) != res.Promotions {
		t.Fatalf("recorded %d failover latencies for %d promotions", len(res.FailoverLatencies), res.Promotions)
	}
	for i, d := range res.FailoverLatencies {
		if d <= 0 {
			t.Fatalf("failover latency %d = %v, want > 0", i, d)
		}
	}
	if res.IndeterminateSlots != 0 {
		t.Fatalf("fault-free auto-failover run left %d slots indeterminate", res.IndeterminateSlots)
	}
	if res.DefiniteFailures == 0 {
		t.Fatal("no write was refused during a detection window; the kill schedule is not biting")
	}
	if res.AckedImpressions == 0 {
		t.Fatal("auto-failover run delivered nothing")
	}
	t.Logf("auto-failover: kills=%d promotions=%d latencies=%v", res.OwnerKills, res.Promotions, res.FailoverLatencies)
}

// Auto-failover with Replicas unset must refuse loudly rather than run a
// supervisor with nothing to promote.
func TestChaosAutoFailoverRequiresReplicas(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.AutoFailover = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("AutoFailover without replicas ran; want a config error")
	}
}

// Reshard under fire: the middle round grows the cluster concurrently
// with driven traffic, disk faults, owner kills, and crash sweeps. The
// faulted run must uphold every invariant, and its final membership —
// ring version and user placement — must be identical to a fault-free
// run of the same seed: faults may delay the membership change (the
// harness retries a lost race on the recovered cluster) but never alter
// its outcome.
func TestChaosReshardUnderFireMatchesControl(t *testing.T) {
	if testing.Short() {
		t.Skip("reshard equivalence pair in -short mode")
	}
	run := func(withFaults bool) *Result {
		cfg := DefaultConfig(17)
		cfg.Replicas = 1
		cfg.Reshard = true
		if !withFaults {
			cfg = faultFree(cfg)
		}
		cfg.Logf = t.Logf
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("reshard run (faults=%v): %v", withFaults, err)
		}
		if res.Failed() {
			for _, v := range res.Violations {
				t.Errorf("faults=%v violation: %s", withFaults, v)
			}
			t.Fatalf("reshard run (faults=%v) violated invariants (dir kept at %s)", withFaults, res.Dir)
		}
		if res.Reshards != 1 {
			t.Fatalf("faults=%v: completed %d reshards, want exactly 1", withFaults, res.Reshards)
		}
		return res
	}
	faulted, ctrl := run(true), run(false)
	if ctrl.IndeterminateSlots != 0 {
		t.Fatalf("fault-free reshard run left %d slots indeterminate", ctrl.IndeterminateSlots)
	}
	if faulted.RingVersion != ctrl.RingVersion || faulted.PlacementHash != ctrl.PlacementHash {
		t.Fatalf("membership diverged under faults: ring v%d hash %x vs control ring v%d hash %x",
			faulted.RingVersion, faulted.PlacementHash, ctrl.RingVersion, ctrl.PlacementHash)
	}
	if ctrl.RingVersion != 2 {
		t.Fatalf("one reshard from a fresh ring must land on version 2, got %d", ctrl.RingVersion)
	}
}

// faultFree zeroes every probabilistic fault of cfg: disk faults, link
// faults and partitions. Crashes stay.
func faultFree(cfg Config) Config {
	cfg.Disk = faults.DiskConfig{}
	cfg.Link = faults.NetConfig{}
	cfg.PartitionProb = 0
	return cfg
}

// Every run crosses the wire: the same invariants with link faults
// (refused dials, delays, duplicates, mid-body resets) and a partitioned
// node, plus crash/restart of the node processes, with two workers.
func TestChaosNetworked(t *testing.T) {
	if testing.Short() {
		t.Skip("two-worker chaos run in -short mode")
	}
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("networked run: %v", err)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("networked run violated invariants (dir kept at %s)", res.Dir)
	}
	if res.Partitions == 0 {
		t.Fatal("networked run injected no partition")
	}
	t.Logf("networked: ops=%d acked=%d crashes=%d partitions=%d faults=%v",
		res.Ops, res.AckedImpressions, res.Crashes, res.Partitions, res.Faults)
}
