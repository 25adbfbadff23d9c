// Command treads-bench runs the canonical performance suites and persists
// the results as BENCH_<area>.json files at the repository root — the
// perf trajectory successive changes are judged against (ROADMAP item:
// "hot-path speed campaign with a persisted perf trajectory").
//
//	treads-bench [-areas index,platform,journal,cluster,gateway,rpc,trace] [-users N] [-out DIR]
//	treads-bench -check [-out DIR]
//
// Each area file records ops/sec plus p50/p90/p99 latency for its hot
// operations, alongside provenance (population size, go version). The
// committed BENCH_index.json is generated at one million users; -users
// exists so a laptop can regenerate smaller files while iterating.
//
// -check validates the committed files instead of benchmarking: required
// metrics present, the index file at full scale with sub-millisecond
// reach queries, zero-alloc counting, and the index-vs-scan equality flag
// set. It also runs a small in-process smoke of the index harness so CI
// catches bit-rot in the bench itself, not only in the files.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/health"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/trace"
	"github.com/treads-project/treads/internal/workload"

	adpkg "github.com/treads-project/treads/internal/ad"
)

// metric is one benchmarked operation's summary.
type metric struct {
	Iterations int     `json:"iterations"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MeanNs     int64   `json:"mean_ns"`
	P50Ns      int64   `json:"p50_ns"`
	P90Ns      int64   `json:"p90_ns"`
	P99Ns      int64   `json:"p99_ns"`
	// AllocsPerOp is present only where it was measured (withAllocs).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// withAllocs returns m with the allocations per call of fn measured over
// the given number of runs.
func (m metric) withAllocs(runs int, fn func()) metric {
	a := testing.AllocsPerRun(runs, fn)
	m.AllocsPerOp = &a
	return m
}

// report is the schema of a BENCH_<area>.json file.
type report struct {
	Area      string            `json:"area"`
	GoVersion string            `json:"go_version"`
	Generated string            `json:"generated"`
	Users     int               `json:"users,omitempty"`
	Shards    int               `json:"shards,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Facts are area-specific scalar findings (memory bytes, speedups,
	// equality proofs) that are not latency distributions.
	Facts map[string]float64 `json:"facts,omitempty"`
}

func main() {
	var (
		areas = flag.String("areas", "index,platform,journal,cluster,gateway,rpc,trace", "comma-separated areas to benchmark")
		users = flag.Int("users", 1_000_000, "population size for the index area")
		out   = flag.String("out", ".", "directory BENCH_<area>.json files are written to / checked in")
		check = flag.Bool("check", false, "validate committed BENCH files instead of benchmarking")
	)
	flag.Parse()

	if *check {
		if err := runCheck(*out); err != nil {
			fmt.Fprintln(os.Stderr, "treads-bench:", err)
			os.Exit(1)
		}
		fmt.Println("BENCH files OK")
		return
	}

	for _, area := range strings.Split(*areas, ",") {
		area = strings.TrimSpace(area)
		var (
			rep report
			err error
		)
		start := time.Now()
		switch area {
		case "index":
			rep, err = benchIndex(*users)
		case "platform":
			rep, err = benchPlatform()
		case "journal":
			rep, err = benchJournal()
		case "cluster":
			rep, err = benchCluster()
		case "gateway":
			rep, err = benchGateway()
		case "rpc":
			rep, err = benchRPC()
		case "trace":
			rep, err = benchTrace()
		default:
			err = fmt.Errorf("unknown area %q", area)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "treads-bench: %s: %v\n", area, err)
			os.Exit(1)
		}
		rep.Area = area
		rep.GoVersion = runtime.Version()
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		path := filepath.Join(*out, "BENCH_"+area+".json")
		if err := writeReport(path, rep); err != nil {
			fmt.Fprintln(os.Stderr, "treads-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: wrote %s (%.1fs)\n", area, path, time.Since(start).Seconds())
	}
}

func writeReport(path string, rep report) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// measure runs fn n times and summarizes the latency distribution.
func measure(n int, fn func()) metric {
	durs := make([]time.Duration, n)
	t0 := time.Now()
	for i := range durs {
		s := time.Now()
		fn()
		durs[i] = time.Since(s)
	}
	return summarize(durs, time.Since(t0))
}

// summarize folds a sample of durations into the metric schema. total is
// the wall time that produced the samples (for ops/sec); pass the sum of
// the samples when the quantity measured is narrower than the call that
// produced it (e.g. a reshard's write-fence window).
func summarize(durs []time.Duration, total time.Duration) metric {
	n := len(durs)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct := func(p float64) int64 {
		i := int(p * float64(n-1))
		return durs[i].Nanoseconds()
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return metric{
		Iterations: n,
		OpsPerSec:  float64(n) / total.Seconds(),
		MeanNs:     sum.Nanoseconds() / int64(n),
		P50Ns:      pct(0.50),
		P90Ns:      pct(0.90),
		P99Ns:      pct(0.99),
	}
}

// benchSpec is the representative campaign expression every area's reach
// queries use: head + torso attributes combined with demographics.
func benchSpec() audience.Spec {
	catalog := attr.DefaultCatalog()
	plat := catalog.BySource(attr.SourcePlatform)
	part := catalog.BySource(attr.SourcePartner)
	return audience.Spec{Expr: attr.And{Ops: []attr.Expr{
		attr.Or{Ops: []attr.Expr{
			attr.Has{ID: plat[0].ID},
			attr.Has{ID: plat[3].ID},
			attr.Has{ID: part[0].ID},
		}},
		attr.Not{Op: attr.Has{ID: plat[7].ID}},
		attr.AgeBetween{Min: 25, Max: 54},
	}}}
}

func benchIndex(users int) (report, error) {
	store := profile.NewStore()
	indexed := audience.NewEngine(store, pixel.NewRegistry())
	if err := indexed.EnableIndex(); err != nil {
		return report{}, err
	}
	buildStart := time.Now()
	workload.Each(workload.Config{
		Users:             users,
		BrokerCoverage:    0.8,
		MeanPlatformAttrs: 25,
		MeanPartnerAttrs:  11,
		Seed:              42,
		Skew:              1.1,
	}, func(p *profile.Profile) {
		if err := store.Add(p); err != nil {
			panic(err)
		}
	})
	buildSecs := time.Since(buildStart).Seconds()
	scan := audience.NewEngine(store, pixel.NewRegistry())
	spec := benchSpec()

	// Equality proof at full scale: engine-vs-engine and bitmap-vs-packed.
	wantReach, err := scan.PotentialReach(spec)
	if err != nil {
		return report{}, err
	}
	gotReach, err := indexed.PotentialReach(spec)
	if err != nil {
		return report{}, err
	}
	idx := indexed.Index()
	if _, _, err := idx.VerifyExpr(spec.Expr); err != nil {
		return report{}, fmt.Errorf("VerifyExpr: %w", err)
	}
	verified := gotReach == wantReach

	rep := report{
		Users:   users,
		Metrics: map[string]metric{},
		Facts: map[string]float64{
			"verified_equal":     b2f(verified),
			"build_seconds":      buildSecs,
			"index_memory_bytes": float64(idx.MemoryBytes()),
			"bytes_per_user":     float64(idx.MemoryBytes()) / float64(users),
		},
	}
	rep.Metrics["index_potential_reach"] = measure(200, func() {
		if _, err := indexed.PotentialReach(spec); err != nil {
			panic(err)
		}
	})
	rep.Metrics["scan_potential_reach"] = measure(5, func() {
		if _, err := scan.PotentialReach(spec); err != nil {
			panic(err)
		}
	})
	rep.Facts["index_speedup_vs_scan"] =
		float64(rep.Metrics["scan_potential_reach"].MeanNs) / float64(rep.Metrics["index_potential_reach"].MeanNs)

	probe := store.Get(profile.UserID("user-000000"))
	rep.Metrics["index_spec_matches"] = measure(2000, func() {
		if _, err := indexed.SpecMatches(spec, probe); err != nil {
			panic(err)
		}
	})

	// The core discipline: counting a compiled plan allocates nothing.
	node, ok := idx.CompileExpr(spec.Expr)
	if !ok {
		return report{}, fmt.Errorf("bench expression did not compile")
	}
	countNode := func() { idx.CountNode(node) }
	rep.Metrics["count_node"] = measure(200, countNode).withAllocs(100, countNode)
	return rep, nil
}

func benchPlatform() (report, error) {
	p := platform.New(platform.Config{Seed: 9})
	profs := workload.Generate(workload.Config{
		Users: 10_000, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 9,
	})
	for _, pr := range profs {
		if err := p.AddUser(pr); err != nil {
			return report{}, err
		}
	}
	if err := p.RegisterAdvertiser("bench-adv"); err != nil {
		return report{}, err
	}
	aud, err := p.CreateAffinityAudience("bench-adv", "bench-aud", []string{"Jazz", "Running", "Coffee"})
	if err != nil {
		return report{}, err
	}
	if _, err := p.CreateCampaign("bench-adv", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{aud}},
		BidCapCPM: money.FromDollars(8),
		Creative:  adpkg.Creative{Headline: "bench", Body: "bench creative"},
	}); err != nil {
		return report{}, err
	}

	rep := report{Users: len(profs), Metrics: map[string]metric{}}
	i := 0
	browse := func() {
		if _, err := p.BrowseFeed(profs[i%len(profs)].ID, 3); err != nil {
			panic(err)
		}
		i++
	}
	rep.Metrics["browse_feed"] = measure(5000, browse).withAllocs(1000, browse)
	ctx := context.Background()
	spec := benchSpec()
	rep.Metrics["potential_reach"] = measure(500, func() {
		if _, err := p.PotentialReach(ctx, "bench-adv", spec); err != nil {
			panic(err)
		}
	})
	return rep, nil
}

func benchJournal() (report, error) {
	rep := report{Metrics: map[string]metric{}}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	run := func(name string, opts journal.Options, n int) error {
		dir, err := os.MkdirTemp("", "treads-bench-journal")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		j, err := journal.Open(dir, opts)
		if err != nil {
			return err
		}
		defer j.Close()
		rep.Metrics[name] = measure(n, func() {
			if _, err := j.Append(payload); err != nil {
				panic(err)
			}
		})
		return nil
	}
	if err := run("append_sync", journal.Options{}, 400); err != nil {
		return report{}, err
	}
	if err := run("append_nosync", journal.Options{NoSync: true}, 20_000); err != nil {
		return report{}, err
	}
	return rep, nil
}

func benchCluster() (report, error) {
	const shards = 4
	c, err := cluster.NewInMemory(shards, platform.Config{Seed: 5}, cluster.Options{})
	if err != nil {
		return report{}, err
	}
	defer c.Close()
	profs := workload.Generate(workload.Config{
		Users: 20_000, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 5,
	})
	for _, pr := range profs {
		if err := c.AddUser(pr); err != nil {
			return report{}, err
		}
	}
	if err := c.RegisterAdvertiser("bench-adv"); err != nil {
		return report{}, err
	}
	ctx := context.Background()
	spec := benchSpec()
	rep := report{Users: len(profs), Shards: shards, Metrics: map[string]metric{}}
	rep.Metrics["scatter_gather_reach"] = measure(300, func() {
		if _, err := c.PotentialReach(ctx, "bench-adv", spec); err != nil {
			panic(err)
		}
	})
	i := 0
	browse := func() {
		if _, err := c.BrowseFeed(profs[i%len(profs)].ID, 3); err != nil {
			panic(err)
		}
		i++
	}
	rep.Metrics["routed_browse_feed"] = measure(3000, browse).withAllocs(1000, browse)

	cutover, moved, err := benchReshard()
	if err != nil {
		return report{}, fmt.Errorf("reshard: %w", err)
	}
	rep.Metrics["reshard_cutover"] = cutover
	rep.Facts = map[string]float64{"reshard_users_moved_per_change": moved}

	failover, err := benchFailover()
	if err != nil {
		return report{}, fmt.Errorf("failover: %w", err)
	}
	rep.Metrics["failover_detect_to_promote"] = failover
	return rep, nil
}

// mortalShard is a journaled shard whose health the failover benchmark
// controls: flipping down simulates a crashed owner without tearing the
// process down, exactly what the health supervisor's probes see.
type mortalShard struct {
	*platform.Journaled
	down atomic.Bool
}

func (s *mortalShard) Healthy() bool { return !s.down.Load() && s.JournalFailed() == nil }

// benchSlotCtrl adapts one replica set to the supervisor: probes report
// the owner's health, failover promotes the best-synced follower.
type benchSlotCtrl struct{ rs *cluster.ReplicaSet }

func (c benchSlotCtrl) ProbeOwner(context.Context) error {
	if hc, ok := c.rs.Owner().(cluster.HealthReporter); ok && !hc.Healthy() {
		return errors.New("owner down")
	}
	return nil
}
func (c benchSlotCtrl) Failover(context.Context) error {
	_, err := c.rs.Promote()
	return err
}
func (c benchSlotCtrl) NeedsHeal() bool            { return false }
func (c benchSlotCtrl) Heal(context.Context) error { return nil }

// benchFailover measures the self-healing loop end to end: each cycle
// boots a replicated slot (journaled owner shipping to a synced
// follower), kills the owner, and lets a health supervisor probing every
// 2ms detect the kill and promote the follower on its own. Each sample
// is the supervisor-reported detect-to-promote latency — the write
// unavailability a deployment budgets per owner failure, on top of the
// detection window (probe interval × miss threshold).
func benchFailover() (metric, error) {
	const (
		cycles   = 12
		interval = 2 * time.Millisecond
	)
	bootEmpty := func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: 5}), nil
	}
	profs := workload.Generate(workload.Config{
		Users: 32, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 5,
	})
	durs := make([]time.Duration, 0, cycles)
	t0 := time.Now()
	for cy := 0; cy < cycles; cy++ {
		err := func() error {
			ownerDir, err := os.MkdirTemp("", "treads-bench-failover")
			if err != nil {
				return err
			}
			defer os.RemoveAll(ownerDir)
			folDir, err := os.MkdirTemp("", "treads-bench-failover")
			if err != nil {
				return err
			}
			defer os.RemoveAll(folDir)
			ownerJP, err := platform.OpenJournaled(ownerDir, journal.Options{NoSync: true}, bootEmpty)
			if err != nil {
				return err
			}
			defer ownerJP.Close()
			folJP, err := platform.OpenJournaled(folDir, journal.Options{NoSync: true}, bootEmpty)
			if err != nil {
				return err
			}
			defer folJP.Close()
			owner := &mortalShard{Journaled: ownerJP}
			folJP.BeginFollow(ownerJP.LastLSN())
			rs := cluster.NewReplicaSet(owner, folJP)
			if err := rs.Chain(); err != nil {
				return err
			}
			// Ship a prefix so the follower is a synced, promotable chain
			// member — the supervisor refuses to promote an unsynced one.
			for _, pr := range profs {
				if err := owner.AddUser(pr); err != nil {
					return err
				}
			}
			if st, _ := folJP.FollowStatus(); !st.Synced {
				return fmt.Errorf("cycle %d: follower never synced", cy)
			}
			promoted := make(chan time.Duration, 1)
			sup := health.NewSupervisor(health.Config{
				Interval:   interval,
				OnFailover: func(_ int, d time.Duration) { promoted <- d },
			})
			defer sup.Close()
			sup.Watch(0, benchSlotCtrl{rs: rs})
			owner.down.Store(true)
			select {
			case d := <-promoted:
				durs = append(durs, d)
			case <-time.After(10 * time.Second):
				return fmt.Errorf("cycle %d: supervisor never promoted", cy)
			}
			if rs.Owner() != cluster.Shard(folJP) {
				return fmt.Errorf("cycle %d: promotion picked the wrong member", cy)
			}
			return nil
		}()
		if err != nil {
			return metric{}, err
		}
	}
	return summarize(durs, time.Since(t0)), nil
}

// benchReshard measures live resharding on a journaled cluster: repeated
// AddShard/RemoveShard cycles, each sample the reshard's write-fence
// window (ReshardReport.Cutover) — the period user writes block, which is
// the availability number the elastic-cluster design budgets. Journals
// run NoSync: the protocol under test is snapshot+tail+fence, not fsync.
func benchReshard() (metric, float64, error) {
	const (
		baseShards = 3
		cycles     = 15
		users      = 3_000
	)
	bootEmpty := func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: 5}), nil
	}
	var (
		opened []*platform.Journaled
		dirs   []string
	)
	openShard := func() (*platform.Journaled, error) {
		dir, err := os.MkdirTemp("", "treads-bench-reshard")
		if err != nil {
			return nil, err
		}
		jp, err := platform.OpenJournaled(dir, journal.Options{NoSync: true}, bootEmpty)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opened = append(opened, jp)
		dirs = append(dirs, dir)
		return jp, nil
	}
	defer func() {
		for _, jp := range opened {
			jp.Close()
		}
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()

	shards := make([]cluster.Shard, baseShards)
	for s := range shards {
		jp, err := openShard()
		if err != nil {
			return metric{}, 0, err
		}
		shards[s] = jp
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		return metric{}, 0, err
	}
	profs := workload.Generate(workload.Config{
		Users: users, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 5,
	})
	for _, pr := range profs {
		if err := c.AddUser(pr); err != nil {
			return metric{}, 0, err
		}
	}

	durs := make([]time.Duration, 0, 2*cycles)
	var totalMoved int
	t0 := time.Now()
	for cy := 0; cy < cycles; cy++ {
		jp, err := openShard()
		if err != nil {
			return metric{}, 0, err
		}
		grow, err := c.AddShard(jp)
		if err != nil {
			return metric{}, 0, fmt.Errorf("cycle %d AddShard: %w", cy, err)
		}
		shrink, err := c.RemoveShard()
		if err != nil {
			return metric{}, 0, fmt.Errorf("cycle %d RemoveShard: %w", cy, err)
		}
		durs = append(durs, grow.Cutover, shrink.Cutover)
		totalMoved += grow.UsersMoved + shrink.UsersMoved
	}
	total := time.Since(t0)
	if got := len(c.Users()); got != users {
		return metric{}, 0, fmt.Errorf("population drifted across reshards: %d users, want %d", got, users)
	}
	return summarize(durs, total), float64(totalMoved) / float64(len(durs)), nil
}

// benchGateway measures the edge hot path: API-key resolution and the
// full admission decision (bucket → quota → shed), both pinned
// allocation-free — this is the tax every single request pays before it
// reaches a handler, so it must be invisible next to handler work.
func benchGateway() (report, error) {
	const (
		admitKey   = "bench-tenant-key-00001"
		drainedKey = "bench-drained-key-0001"
	)
	// The admit tenant's buckets are effectively bottomless so the
	// benchmark exercises the admitted path, never a refusal; the drained
	// tenant refills slowly enough that after one token it is limited for
	// the rest of the run.
	keyFile := `{
	  "tenants": [
	    {"name": "bench", "key": "` + admitKey + `",
	     "limits": {"user": {"rps": 1e8, "burst": 2e8},
	                "mutation": {"rps": 1e8, "burst": 2e8},
	                "report": {"rps": 1e8, "burst": 2e8}}},
	    {"name": "drained", "key": "` + drainedKey + `",
	     "limits": {"mutation": {"rps": 0.001, "burst": 1}}}
	  ]
	}`
	ks, err := gateway.ParseKeyFile([]byte(keyFile), time.Now())
	if err != nil {
		return report{}, err
	}
	gw, err := gateway.New(http.NotFoundHandler(), gateway.Config{
		Keys:     ks,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		return report{}, err
	}
	defer gw.Close()

	rep := report{Metrics: map[string]metric{}}

	m := measure(200_000, func() {
		if ks.Resolve(admitKey) == nil {
			panic("bench key did not resolve")
		}
	})
	rep.Metrics["resolve_key"] = m.withAllocs(10_000, func() { ks.Resolve(admitKey) })

	tenant := ks.Resolve(admitKey)
	m = measure(200_000, func() {
		if d := gw.Decide(tenant, gateway.ClassMutation); d.Verdict != gateway.VerdictAdmitted {
			panic("bench decision refused")
		}
		gw.Release()
	})
	m = m.withAllocs(10_000, func() {
		t := ks.Resolve(admitKey)
		if d := gw.Decide(t, gateway.ClassMutation); d.Verdict == gateway.VerdictAdmitted {
			gw.Release()
		}
	})
	rep.Metrics["decide_admit"] = m

	drained := ks.Resolve(drainedKey)
	gw.Decide(drained, gateway.ClassMutation) // spend the single token
	m = measure(200_000, func() {
		if d := gw.Decide(drained, gateway.ClassMutation); d.Verdict != gateway.VerdictLimited {
			panic("drained tenant was not limited")
		}
	})
	rep.Metrics["decide_limited"] = m.withAllocs(10_000, func() { gw.Decide(drained, gateway.ClassMutation) })
	return rep, nil
}

// benchRPC measures the shard RPC transport over real loopback HTTP: a
// health probe (the floor — protocol and connection-pool overhead), a
// routed feed read, and a transparency read, the ops a router issues per
// user request.
func benchRPC() (report, error) {
	reg := obs.NewRegistry()
	p := platform.New(platform.Config{Seed: 11})
	profs := workload.Generate(workload.Config{
		Users: 5_000, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 11,
	})
	for _, pr := range profs {
		if err := p.AddUser(pr); err != nil {
			return report{}, err
		}
	}
	if err := p.RegisterAdvertiser("bench-adv"); err != nil {
		return report{}, err
	}
	aud, err := p.CreateAffinityAudience("bench-adv", "bench-aud", []string{"Jazz", "Running", "Coffee"})
	if err != nil {
		return report{}, err
	}
	if _, err := p.CreateCampaign("bench-adv", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{aud}},
		BidCapCPM: money.FromDollars(8),
		Creative:  adpkg.Creative{Headline: "bench", Body: "bench creative"},
	}); err != nil {
		return report{}, err
	}

	const secret = "treads-bench-rpc-secret"
	ts := httptest.NewServer(rpc.NewServer(p, secret, reg))
	defer ts.Close()
	c := rpc.NewClient(ts.URL, rpc.Options{Secret: secret, Registry: reg})
	defer c.Close()

	ctx := context.Background()
	rep := report{Users: len(profs), Metrics: map[string]metric{}}
	rep.Metrics["call_health"] = measure(5_000, func() {
		if _, err := c.Health(ctx); err != nil {
			panic(err)
		}
	})
	i := 0
	rep.Metrics["call_browse"] = measure(3_000, func() {
		if _, err := c.BrowseFeed(ctx, profs[i%len(profs)].ID, 3); err != nil {
			panic(err)
		}
		i++
	})
	i = 0
	rep.Metrics["call_prefs"] = measure(3_000, func() {
		if _, err := c.AdPreferences(ctx, profs[i%len(profs)].ID); err != nil {
			panic(err)
		}
		i++
	})
	return rep, nil
}

// benchTrace measures the tracing tax every request pays. The sampled
// numbers price what turning the dial up costs; the unsampled span
// path — the 99% case at the default 1% rate — is pinned
// allocation-free, the discipline that lets the instrumentation sit on
// every hot path unconditionally. inject_extract prices the traceparent
// header round-trip the RPC hop adds to a sampled call.
func benchTrace() (report, error) {
	reg := obs.NewRegistry()
	on := trace.NewTracer(trace.Options{Service: "bench", SampleRate: 1, Seed: 1, Registry: reg})
	off := trace.NewTracer(trace.Options{Service: "bench", SampleRate: 0, SlowThreshold: -1, Seed: 1, Registry: reg})
	ctx := context.Background()
	spanPair := func(t *trace.Tracer) {
		c, root := t.StartRoot(ctx, "bench.root")
		if root != nil {
			root.Annotate("k", "v")
		}
		_, child := trace.StartChild(c, "bench.child")
		child.Finish()
		root.Finish()
	}

	rep := report{Metrics: map[string]metric{}}
	sampled, unsampled := func() { spanPair(on) }, func() { spanPair(off) }
	rep.Metrics["span_sampled"] = measure(200_000, sampled).withAllocs(10_000, sampled)
	rep.Metrics["span_unsampled"] = measure(200_000, unsampled).withAllocs(10_000, unsampled)

	// The RPC hop: inject on the client, parse on the server.
	_, sp := on.StartRoot(ctx, "bench.inject")
	defer sp.Finish()
	h := make(http.Header, 1)
	injectExtract := func() {
		trace.Inject(sp, h)
		if _, _, ok := trace.Extract(h); !ok {
			panic("bench traceparent did not round-trip")
		}
	}
	rep.Metrics["inject_extract"] = measure(200_000, injectExtract).withAllocs(10_000, injectExtract)
	return rep, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// allocsAtMost fails unless the metric's allocations per op were measured
// and are within max.
func allocsAtMost(path string, rep report, name string, max float64) error {
	a := rep.Metrics[name].AllocsPerOp
	if a == nil {
		return fmt.Errorf("%s: %s has no measured allocs_per_op", path, name)
	}
	if *a > max {
		return fmt.Errorf("%s: %s allocates %.1f per op, want at most %.0f", path, name, *a, max)
	}
	return nil
}

// runCheck validates the committed BENCH files and smoke-runs the index
// harness at a small scale.
func runCheck(dir string) error {
	required := map[string][]string{
		"index":    {"index_potential_reach", "scan_potential_reach", "index_spec_matches", "count_node"},
		"platform": {"browse_feed", "potential_reach"},
		"journal":  {"append_sync", "append_nosync"},
		"cluster":  {"scatter_gather_reach", "routed_browse_feed", "reshard_cutover", "failover_detect_to_promote"},
		"gateway":  {"resolve_key", "decide_admit", "decide_limited"},
		"rpc":      {"call_health", "call_browse", "call_prefs"},
		"trace":    {"span_sampled", "span_unsampled", "inject_extract"},
	}
	for area, metrics := range required {
		path := filepath.Join(dir, "BENCH_"+area+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("missing committed bench file: %w", err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rep.Area != area {
			return fmt.Errorf("%s: area is %q", path, rep.Area)
		}
		for _, m := range metrics {
			mt, ok := rep.Metrics[m]
			if !ok {
				return fmt.Errorf("%s: missing metric %q", path, m)
			}
			if mt.Iterations <= 0 || mt.P50Ns <= 0 {
				return fmt.Errorf("%s: metric %q has implausible values", path, m)
			}
		}
		if area == "platform" {
			// A 3-slot browse by a user new to the pipeline: the user's
			// record and its map entry when nothing is won, more only on
			// an impression. The per-slot scan this replaced measured 6.
			if err := allocsAtMost(path, rep, "browse_feed", 2); err != nil {
				return err
			}
		}
		if area == "trace" {
			// Tracing is on by default on every hot path; the committed
			// file must prove the unsampled span costs no allocations.
			if err := allocsAtMost(path, rep, "span_unsampled", 0); err != nil {
				return err
			}
		}
		if area == "gateway" {
			// The edge decision is on the path of every request: the
			// committed file must prove it admits without allocating.
			for _, m := range []string{"resolve_key", "decide_admit", "decide_limited"} {
				if err := allocsAtMost(path, rep, m, 0); err != nil {
					return err
				}
			}
		}
		if area == "index" {
			if rep.Users < 1_000_000 {
				return fmt.Errorf("%s: generated at %d users; the committed file must cover >= 1M", path, rep.Users)
			}
			if rep.Facts["verified_equal"] != 1 {
				return fmt.Errorf("%s: index-vs-scan equality was not proven", path)
			}
			if p50 := rep.Metrics["index_potential_reach"].P50Ns; p50 >= int64(time.Millisecond) {
				return fmt.Errorf("%s: index reach p50 %dns is not sub-millisecond", path, p50)
			}
			if err := allocsAtMost(path, rep, "count_node", 0); err != nil {
				return err
			}
		}
	}

	// Smoke: the index harness still runs end to end (tiny population).
	rep, err := benchIndex(2_000)
	if err != nil {
		return fmt.Errorf("index smoke: %w", err)
	}
	if rep.Facts["verified_equal"] != 1 {
		return fmt.Errorf("index smoke: equality check failed")
	}
	return nil
}
