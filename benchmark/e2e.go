package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/treads-project/treads/internal/httpapi"
)

// warmupOps are issued per client before the closed phase and not timed:
// they open the keep-alive connections and take every route's first-call
// cost. They are part of the fixed work, so the state the measured phases
// start from is the same on every commit.
const warmupOps = 100

// metrics maps a metric name to its measured value; units live in
// BENCHMARK.json.
type metrics map[string]float64

// e2eResult is one multi-process run of one workload.
type e2eResult struct {
	endToEnd   metrics
	perLayer   metrics // what the process run can attribute: client.*, proc.*, scraped counters, core.*
	samples    map[string]int
	attempted  int
	failed     int
	violations []string // output-check failures; any makes the run incorrect
	meanMS     float64  // closed-phase mean latency, the base of trace.inproc_ratio
}

// runProcesses boots the real topology `setups` times (keeping the last),
// runs warm-up, the closed phase and the open phase against it, checks the
// outputs, and tears it down. Client-side timing only: the daemons run
// with tracing off.
func runProcesses(ctx context.Context, w workload, bin string, seed uint64, seconds float64, outDir string, clients, setups int) (*e2eResult, error) {
	wd := newWorld(w, seed)
	var (
		topo   *topology
		tgt    *target
		dir    string
		setupS []float64
		boots  [][]float64 // every set-up's peak resident sets once seeded
	)
	for k := 0; k < setups; k++ {
		dir = filepath.Join(outDir, fmt.Sprintf("%s-setup%d", w.Name, k))
		if err := freshDir(dir); err != nil {
			return nil, err
		}
		wd.resetSeeded()
		start := time.Now()
		var err error
		if topo, err = bootTopology(ctx, w, bin, seed, dir); err != nil {
			return nil, err
		}
		tgt = newTarget(topo.base, wd, clients)
		if err := tgt.seed(ctx, clients); err != nil {
			topo.kill()
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		boot, err := topo.peakRSSMB()
		if err != nil {
			topo.kill()
			return nil, err
		}
		boots = append(boots, boot)
		if k < setups-1 {
			tgt.close()
			topo.kill()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer topo.kill()
	defer tgt.close()

	nWarm, nClosed, nOpen := warmupOps*clients, w.closedOps(seconds), w.openOps(seconds)
	ops := wd.generate(seed, nWarm+nClosed+nOpen, clients)
	progress("%s: set-ups %.2fs; %d warm-up, %d closed, %d open ops", w.Name, setupS, nWarm, nClosed, nOpen)
	warm := runPhase(tgt, ops[:nWarm], clients, 0, nil)

	mon := startMonitor(topo)
	closed := runPhase(tgt, ops[nWarm:nWarm+nClosed], clients, 0, &mon.completed)
	ticks, err := mon.stop()
	if err != nil {
		return nil, err
	}
	progress("%s: closed phase %.2fs", w.Name, closed.wall.Seconds())
	mon = startMonitor(topo)
	open := runPhase(tgt, ops[nWarm+nClosed:], clients, w.OpenRate, nil)
	openTicks, err := mon.stop()
	if err != nil {
		return nil, err
	}
	progress("%s: open phase %.2fs", w.Name, open.wall.Seconds())
	for _, p := range []phase{closed, open} {
		// Nothing to take a percentile of: a daemon died or never served.
		if p.failed() == len(p.samples) {
			return nil, fmt.Errorf("%s: every op of a measured phase failed, first: %v\n%s", w.Name, p.firstErr(), topo.stderrTails())
		}
	}

	res := &e2eResult{endToEnd: metrics{}, perLayer: metrics{}, samples: map[string]int{}}
	res.attempted = len(ops)
	res.failed = warm.failed() + closed.failed() + open.failed()
	for _, p := range []phase{warm, closed, open} {
		if err := p.firstErr(); err != nil {
			res.violations = append(res.violations, fmt.Sprintf("%d ops failed, first: %v", res.failed, err))
			break
		}
	}
	led := newLedger()
	led.merge(warm.ledger)
	led.merge(closed.ledger)
	led.merge(open.ledger)

	okClosed := float64(len(closed.samples) - closed.failed())
	cpu0, cpu1 := ticks[0].cpu, ticks[len(ticks)-1].cpu
	routerCPU, shardCPU := cpu1[0]-cpu0[0], sum(cpu1[1:])-sum(cpu0[1:])
	sliceTput, sliceCPU := closedSlices(ticks)
	rss, err := topo.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Every timing is a median over short windows of its phase: this box
	// loses tens of milliseconds to its hypervisor now and then, and a
	// whole-phase figure would report the stall, not the program. Latency
	// percentiles are medians over the open phase's two-second windows,
	// throughput and CPU per op over the closed phase's one-second slices.
	e := res.endToEnd
	e["setup_s"], res.samples["setup_s"] = median(setupS), len(setupS)
	e["latency_p50_ms"], res.samples["latency_p50_ms"] = windowedPercentile(open, 50)
	e["peak_rss_mb"], res.samples["peak_rss_mb"] = footprintMB(boots, rss), len(boots)*len(rss)
	closedMS := closed.latencies(0, true)
	res.meanMS = mean(closedMS)

	l := res.perLayer
	for k := opKind(0); k < numOps; k++ {
		// Per-op percentiles pool both measured phases; an op the mix
		// does not issue reports 0.
		lat := sortedCopy(append(closed.latencies(k, false), open.latencies(k, false)...))
		p50, p99 := 0.0, 0.0
		if len(lat) > 0 {
			p50, p99 = percentile(lat, 50), percentile(lat, 99)
		}
		l["client."+opNames[k]+".p50_ms"], l["client."+opNames[k]+".p99_ms"] = p50, p99
	}
	stolenOpen := stolen(openTicks[0], openTicks[len(openTicks)-1])
	l["client.steal_pct"] = 100 * (stolen(ticks[0], ticks[len(ticks)-1]) + stolenOpen) / 2
	l["client.throughput_ops_s"] = median(sliceTput)
	l["client.cpu_ms_per_op"] = median(sliceCPU)
	l["client.closed_p50_ms"] = percentile(closedMS, 50)
	l["client.latency_p95_ms"], _ = windowedPercentile(open, 95)
	l["client.latency_p99_ms"] = percentile(open.latencies(0, true), 99)
	var late []float64
	missed := 0
	for _, s := range open.samples {
		late = append(late, ms(s.late))
		if s.err != nil || s.latency > w.Limit {
			missed++
		}
	}
	l["client.late_p99_ms"] = percentile(sortedCopy(late), 99)
	l["client.slo_miss_rate"] = float64(missed) / float64(len(open.samples))
	l["client.error_rate"] = float64(res.failed) / float64(res.attempted)
	l["proc.router.cpu_ms_per_op"] = routerCPU / okClosed
	l["proc.shard.cpu_ms_per_op"] = shardCPU / okClosed
	l["proc.router.rss_mb"] = rss[0]
	l["proc.shard.rss_mb"] = sum(rss[1:])

	// The tail is not bounded (it does not repeat on this box), but it may
	// not collapse unseen: the run is incorrect when the typical window of
	// the open phase misses the latency limit on more than sloMissLimit of
	// its ops. A window the hypervisor stalled is not typical; a phase it
	// took a large share of is excused, since then the box missed the limit,
	// not the program.
	if typical := windowedMissRate(open, w.Limit); typical > sloMissLimit {
		if stolenOpen > stolenExcuse {
			progress("%s: %.1f%% of ops missed the %v limit while %.0f%% of CPU time was stolen: not counted", w.Name, 100*typical, w.Limit, 100*stolenOpen)
		} else {
			res.violations = append(res.violations, fmt.Sprintf("open phase: %.1f%% of ops failed or took longer than %v in the median window (limit %.0f%%)",
				100*typical, w.Limit, 100*sloMissLimit))
		}
	}

	if err := verifyOutputs(tgt, led, clients, res); err != nil {
		return nil, err
	}
	progress("%s: outputs checked", w.Name)
	if len(res.violations) == 0 {
		// Journals and logs are only worth keeping when something failed.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// footprintMB is the deployment's peak memory: the public process's peak
// plus, for every shard, the lower median of the shard processes' peaks,
// where no process counts for less than the typical peak of its kind at the
// end of set-up (the median over all set-ups of the run).
//
// A process's peak is the larger of what booting took (generating the
// population and writing the boot snapshot: 120 MB a shard, which the load
// as a rule does not exceed on the seed) and what the load took, and both
// depend on when the collector happened to run. One shard boot in thirteen
// peaks 10 MB lower than the others; the median over the run's set-ups
// (three set-ups of two shards) takes that out. And in one run in four a
// shard's collector falls behind during the saturated closed phase and its
// peak lands 10 to 30 MB higher; the shards hold equal shares of the
// population and of the load, so the lower median of their peaks takes
// that out. The plain sum (proc.router.rss_mb + proc.shard.rss_mb) spreads
// by up to 15 % between runs. Growth that the program causes, at boot or
// under load, raises every shard and shows all the same.
func footprintMB(boots [][]float64, end []float64) float64 {
	var public, shard []float64
	for _, b := range boots {
		public = append(public, b[0])
		shard = append(shard, b[1:]...)
	}
	total := max(median(public), end[0])
	if len(end) == 1 {
		return total
	}
	var shards []float64
	for _, e := range end[1:] {
		shards = append(shards, max(median(shard), e))
	}
	sort.Float64s(shards)
	return total + float64(len(shards))*shards[(len(shards)-1)/2]
}

// sloMissLimit is the share of ops that may miss the workload's latency
// limit in the median window of the open phase before the run counts as
// incorrect. On the seed the median window misses 0 to 1.5 %, and up to 5 %
// on treads_cluster while the box runs at half speed. stolenExcuse is the
// share of the box's CPU time above which the hypervisor, not the program,
// is held to have missed the limit (quiet runs see under 1 % stolen, the
// box's bad spells 8 to 50 %).
const (
	sloMissLimit = 0.10
	stolenExcuse = 0.05
)

// freshDir creates dir empty: journals a killed earlier run left behind
// would otherwise be recovered by the new daemons.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

var started = time.Now()

// progress logs to stderr; stdout carries only results.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// verifyOutputs is the output check: what the platform acknowledged to the
// client must equal what it will show the users (GET /feed) and what it
// bills the advertiser (campaign reports); nothing may have been shown
// against the ground truth; and the edge and the rpc layer must have done
// their work without refusing or retrying.
func verifyOutputs(tgt *target, led *ledger, clients int, res *e2eResult) error {
	wd := tgt.wd
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}

	touched := make([]int32, 0, len(led.perUser))
	for u := range led.perUser {
		touched = append(touched, u)
	}
	feedCounts := make([]int, len(touched))
	if err := parallelDo(len(touched), clients, func(i int) error {
		raw, err := tgt.roundTrip("GET", "/api/v1/users/"+wd.users[touched[i]]+"/feed", nil, false, "")
		if err != nil {
			return err
		}
		var imps []struct{}
		if err := json.Unmarshal(raw, &imps); err != nil {
			return err
		}
		feedCounts[i] = len(imps)
		return nil
	}); err != nil {
		return fmt.Errorf("feed recount: %w", err)
	}
	feedTotal := 0
	for i, u := range touched {
		feedTotal += feedCounts[i]
		if feedCounts[i] != led.perUser[u] {
			fail("user %s: feed holds %d impressions, %d were acknowledged", wd.users[u], feedCounts[i], led.perUser[u])
			break
		}
	}

	reports := make([]httpapi.ReportWire, len(wd.base))
	if err := parallelDo(len(wd.base), clients, func(i int) error {
		raw, err := tgt.roundTrip("GET", "/api/v1/advertisers/"+advertiser+"/campaigns/"+wd.base[i]+"/report", nil, true, "")
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, &reports[i])
	}); err != nil {
		return fmt.Errorf("campaign reports: %w", err)
	}
	billed, spend := 0, 0.0
	for _, r := range reports {
		billed += r.Impressions
		spend += r.SpendUSD
	}
	if led.impressions != feedTotal || led.impressions != billed {
		fail("impressions: %d acknowledged, %d in feeds, %d billed", led.impressions, feedTotal, billed)
	}
	if led.falseShown > 0 {
		fail("%d impressions shown against the ground truth (wrong attribute or not opted in)", led.falseShown)
	}

	l := res.perLayer
	l["gateway.refused_total"], l["rpc.retries_total"] = 0, 0
	if wd.w.Cluster {
		fam, err := scrape(tgt, "gateway_limited_total", "gateway_shed_total", "rpc_client_retries_total")
		if err != nil {
			return err
		}
		l["gateway.refused_total"] = fam["gateway_limited_total"] + fam["gateway_shed_total"]
		l["rpc.retries_total"] = fam["rpc_client_retries_total"]
		if l["gateway.refused_total"] > 0 || l["rpc.retries_total"] > 0 {
			fail("gateway refused %v requests, rpc retried %v calls; both must be 0", l["gateway.refused_total"], l["rpc.retries_total"])
		}
	}

	for _, k := range []string{"core.reveal_completeness", "core.slots_per_reveal", "core.cost_usd_per_reveal", "core.false_reveals"} {
		l[k] = 0
	}
	l["delivery.fill_ratio"] = 0
	if led.slots > 0 {
		l["delivery.fill_ratio"] = float64(led.impressions) / float64(led.slots)
	}
	if wd.w.Treads {
		truePairs := wd.truth.platformPairs(wd.w.Cohort)
		reveals := float64(len(led.revealed))
		l["core.false_reveals"] = float64(led.falseShown)
		if reveals > 0 {
			l["core.reveal_completeness"] = reveals / float64(truePairs)
			l["core.slots_per_reveal"] = float64(led.slots) / reveals
			l["core.cost_usd_per_reveal"] = spend / reveals
		}
	}
	return nil
}

// scrape sums every series of the named families on the public process's
// /metrics page.
func scrape(tgt *target, families ...string) (map[string]float64, error) {
	raw, err := tgt.roundTrip("GET", "/metrics", nil, false, "")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	out := make(map[string]float64, len(families))
	for _, line := range strings.Split(string(raw), "\n") {
		for _, f := range families {
			rest, ok := strings.CutPrefix(line, f)
			if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("scraping %s: %w", f, err)
			}
			out[f] += v
		}
	}
	return out, nil
}
