package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	popgen "github.com/treads-project/treads/internal/workload"
)

// traceBlocks is how many blocks the in-process work is cut into; shims
// record in every second block, so both halves see the same drift in state
// (frequency caps filling, feeds growing).
const traceBlocks = 10

// tracedResult is the in-process part of a traced run.
type tracedResult struct {
	perLayer metrics
	perName  map[string]float64 // attribution: self µs per request by span name
	requests int
	extra    [][3]string // attribution-table rows from the isolated timings
}

// runTraced assembles the stack in-process, runs 1/5 of the closed-phase
// work twice — shims silent, shims recording, interleaved — and turns the
// spans and counters into the per-layer metrics. multiMeanMS is the real
// topology's closed-phase mean latency.
func runTraced(ctx context.Context, w workload, seed uint64, seconds float64, outDir string, clients int, multiMeanMS float64) (*tracedResult, error) {
	dir := filepath.Join(outDir, w.Name+"-inproc")
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	rec, n := newRecorder(), &counters{}
	st, err := bootInProcess(w, seed, dir, rec, n)
	if err != nil {
		return nil, err
	}
	defer st.close()
	wd := newWorld(w, seed)
	tgt := newTarget(st.base, wd, clients)
	tgt.rec = rec
	defer tgt.close()
	if err := tgt.seed(ctx, clients); err != nil {
		return nil, err
	}

	per := w.closedOps(seconds) / 5 / (traceBlocks / 2)
	nWarm := warmupOps * clients
	ops := wd.generate(seed, nWarm+per*traceBlocks, clients)
	if err := runPhase(tgt, ops[:nWarm], clients, 0, nil).firstErr(); err != nil {
		return nil, fmt.Errorf("in-process warm-up: %w", err)
	}
	before := n.snapshot()
	var offMS, onMS []float64
	respBytes := 0
	for b := 0; b < traceBlocks; b++ {
		rec.on.Store(b%2 == 1)
		ph := runPhase(tgt, ops[nWarm+b*per:nWarm+(b+1)*per], clients, 0, nil)
		if err := ph.firstErr(); err != nil {
			return nil, fmt.Errorf("in-process run: %w", err)
		}
		lat := ph.latencies(0, true)
		if b%2 == 1 {
			onMS = append(onMS, lat...)
		} else {
			offMS = append(offMS, lat...)
		}
		for _, s := range ph.samples {
			respBytes += s.bytes
		}
	}
	rec.on.Store(false)
	d := n.snapshot()
	for i := range d {
		d[i] -= before[i]
	}
	reqs := float64(per * traceBlocks)

	spans := rec.take()
	if err := writeSpans(filepath.Join(outDir, w.Name+"-spans.ndjson"), spans); err != nil {
		return nil, err
	}
	perName, traced, sumErr := attribution(spans)
	res := &tracedResult{perLayer: metrics{}, perName: perName, requests: traced}
	l := res.perLayer
	for name, span := range map[string]string{
		"client.wire_us": "client", "gateway.self_us": "gateway", "httpapi.self_us": "httpapi", "cluster.self_us": "cluster",
		"rpc.client.self_us": "rpc.client", "rpc.wire_us": "rpc.wire", "rpc.server.self_us": "rpc.server",
	} {
		l[name] = perName[span]
	}
	l["httpapi.resp_bytes_per_op"] = float64(respBytes) / reqs
	l["cluster.shard_calls_per_op"] = d[cShardCalls] / reqs
	l["rpc.req_bytes_per_call"] = ratio(d[cRPCReqBytes], d[cRPCCalls])
	l["rpc.resp_bytes_per_call"] = ratio(d[cRPCRespBytes], d[cRPCCalls])
	l["platform.op_us"] = ratio(d[cPlatformNS], d[cPlatformOps]) / 1e3
	l["journal.fsync_us"] = ratio(d[cFsyncNS], d[cFsyncs]) / 1e3
	l["journal.write_us"] = ratio(d[cWriteNS], d[cWrites]) / 1e3
	l["journal.fsyncs_per_op"] = d[cFsyncs] / reqs
	l["journal.records_per_fsync"] = ratio(d[cRecords], d[cFsyncs])
	l["journal.bytes_per_op"] = d[cWriteBytes] / reqs
	l["trace.overhead_pct"] = 100 * (mean(onMS)/mean(offMS) - 1)
	l["trace.sum_error_pct"] = sumErr
	l["trace.inproc_ratio"] = mean(offMS) / multiMeanMS

	iso, err := isolate(ctx, w, seed, clients, st, wd)
	if err != nil {
		return nil, err
	}
	for k, v := range iso {
		l[k] = v
	}
	// What a platform call spends neither applying the op nor in journal
	// I/O: the commit-window sleep plus waiting for the shard lock. Journal
	// I/O is shared out evenly: a group commit's one flush serves its batch.
	journalUS := ratio(d[cFsyncNS]+d[cWriteNS], d[cPlatformOps]) / 1e3
	l["platform.wait_us"] = 0
	if w.Cluster {
		l["platform.wait_us"] = l["platform.op_us"] - iso["platform.apply_us"] - journalUS
	}
	delete(l, "platform.apply_us")
	perOp := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	res.extra = [][3]string{
		{"of platform:", "", "from counters and isolated timings, per request"},
		{"  apply", perOp(iso["platform.apply_us"] * d[cPlatformOps] / reqs), "the op mix on a bare platform: no journal, lock contention or rpc"},
		{"  delivery", perOp(l["delivery.slot_us"] * float64(w.Slots*w.Mix[opBrowse]) / float64(w.mixTotal())), "slot auctions at a user's first browse (no frequency cap reached yet): delivery.slot_us x slots x browse share"},
		{"  journal", perOp(journalUS * d[cPlatformOps] / reqs), "segment writes and fsyncs, shared out over the batch"},
		{"  wait", perOp(l["platform.wait_us"] * d[cPlatformOps] / reqs), "commit window, shard lock"},
	}
	return res, os.RemoveAll(dir)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// isolate times the layers that have no seam to shim — delivery, audience,
// auction, index — by calling their public functions directly on an
// un-journaled platform holding the whole population and the workload's
// campaigns. On a one-process workload that is the stack's own platform;
// otherwise one is booted and seeded the same way, over HTTP.
func isolate(ctx context.Context, w workload, seed uint64, clients int, st *stack, wd *world) (metrics, error) {
	p := st.single
	if p == nil {
		wd = newWorld(w, seed)
		single := w
		single.Cluster = false
		iso, err := bootInProcess(single, seed, "", newRecorder(), &counters{})
		if err != nil {
			return nil, err
		}
		defer iso.close()
		tgt := newTarget(iso.base, wd, clients)
		defer tgt.close()
		if err := tgt.seed(ctx, clients); err != nil {
			return nil, fmt.Errorf("seeding the isolated platform: %w", err)
		}
		p = iso.single
	}
	out := metrics{}
	rounds := max(400, int(w.ClosedRate))
	user := func(i int) profile.UserID { return profile.UserID(wd.users[i%wd.cohort()]) }

	// delivery: BrowseFeed is the delivery pipeline plus a map lookup.
	out["delivery.slot_us"], out["delivery.allocs_per_slot"] = 0, 0
	out["delivery.parallel_speedup"], out["delivery.campaigns_per_slot"] = 0, 0
	if w.Mix[opBrowse] > 0 {
		browse := func(from, to int) error {
			for i := from; i < to; i++ {
				if _, err := p.BrowseFeed(user(i), w.Slots); err != nil {
					return err
				}
			}
			return nil
		}
		start := time.Now()
		if err := browse(0, rounds); err != nil {
			return nil, err
		}
		serial := time.Since(start)
		out["delivery.slot_us"] = us(serial) / float64(rounds*w.Slots)

		var wg sync.WaitGroup
		procs := runtime.NumCPU()
		errs := make([]error, procs)
		start = time.Now()
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = browse(rounds+g*rounds/procs, rounds+(g+1)*rounds/procs)
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		out["delivery.parallel_speedup"] = serial.Seconds() / time.Since(start).Seconds()

		i := 2 * rounds
		out["delivery.allocs_per_slot"] = testing.AllocsPerRun(50, func() {
			i++
			_, _ = p.BrowseFeed(user(i), w.Slots) // the same call just succeeded 2×rounds times
		}) / float64(w.Slots)
		out["delivery.campaigns_per_slot"] = float64(len(wd.broadSpecs()))
		if w.Treads {
			out["delivery.campaigns_per_slot"] = float64(len(wd.attrs))
		}
	}

	// platform.apply_us: the workload's own op mix applied to the bare
	// platform, the "isolated apply" that platform.wait_us subtracts.
	ops := wd.generate(seed, rounds, clients)
	start := time.Now()
	applied := 0
	for _, o := range ops {
		uid := profile.UserID(wd.users[o.user])
		var err error
		switch o.kind {
		case opBrowse:
			_, err = p.BrowseFeed(uid, w.Slots)
		case opLike:
			err = p.LikePage(uid, wd.pages[o.a])
		case opVisit:
			err = p.VisitPage(uid, pixel.PixelID(wd.pixel))
		case opPrefs:
			_, err = p.AdPreferences(uid)
		case opReach:
			_, err = p.RawReach(ctx, advertiser, reachSpec(wd, o))
		default:
			continue // report/create/pause: a map lookup or insert, left out
		}
		if err != nil {
			return nil, fmt.Errorf("isolated %s: %w", opNames[o.kind], err)
		}
		applied++
	}
	out["platform.apply_us"] = ratio(us(time.Since(start)), float64(applied))

	// index: PotentialReach direct, the expression shape of the reach op.
	rng := stats.NewRNG(seed)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		o := op{a: int32(rng.Intn(len(wd.attrs))), b: int32(rng.Intn(len(wd.attrs)))}
		if _, err := p.PotentialReach(ctx, advertiser, reachSpec(wd, o)); err != nil {
			return nil, fmt.Errorf("isolated reach: %w", err)
		}
	}
	out["index.reach_us"] = us(time.Since(start)) / float64(rounds)

	ns, bids, err := isolateAudience(w, wd, seed)
	if err != nil {
		return nil, err
	}
	out["audience.spec_matches_ns"] = ns
	out["auction.run_ns"] = isolateAuction(bids, seed)
	return out, nil
}

func reachSpec(wd *world, o op) audience.Spec {
	return audience.Spec{Expr: attr.NewAnd(attr.Has{ID: attr.ID(wd.attrs[o.a])}, attr.Has{ID: attr.ID(wd.attrs[o.b])})}
}

// isolateAudience times audience.Engine.SpecMatches over the workload's
// campaign specs on an indexed engine holding the population, and returns
// the mean number of specs a user matches — the bid count of a typical slot
// auction.
func isolateAudience(w workload, wd *world, seed uint64) (nsPerCall float64, meanBids int, err error) {
	store := profile.NewStore()
	eng := audience.NewEngine(store, pixel.NewRegistry())
	if err := eng.EnableIndex(); err != nil {
		return 0, 0, err
	}
	cfg := popgen.DefaultConfig()
	cfg.Users = population
	cfg.Seed = seed
	var users []*profile.Profile
	popgen.Each(cfg, func(p *profile.Profile) {
		if err == nil {
			err = store.Add(p)
		}
		if len(users) < 200 {
			users = append(users, p)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var specs []audience.Spec
	if w.Treads {
		aud := eng.CreateEngagementAudience(advertiser, "opted-in", optInPage)
		for _, u := range users {
			u.Like(optInPage)
		}
		for _, a := range wd.attrs {
			specs = append(specs, audience.Spec{IncludeAll: []audience.AudienceID{aud.ID}, Expr: attr.Has{ID: attr.ID(a)}})
		}
	} else {
		for _, s := range wd.broadSpecs() {
			spec := audience.Spec{}
			if s != "" {
				if spec.Expr, err = attr.Parse(s); err != nil {
					return 0, 0, err
				}
			}
			specs = append(specs, spec)
		}
	}
	matched := 0
	start := time.Now()
	for _, u := range users {
		for _, s := range specs {
			ok, err := eng.SpecMatches(s, u)
			if err != nil {
				return 0, 0, err
			}
			if ok {
				matched++
			}
		}
	}
	calls := len(users) * len(specs)
	return float64(time.Since(start).Nanoseconds()) / float64(calls), (matched + len(users)/2) / len(users), nil
}

// isolateAuction times auction.Run with the given number of bidders.
func isolateAuction(bidders int, seed uint64) float64 {
	if bidders < 1 {
		bidders = 1
	}
	bids := make([]auction.Bid, bidders)
	for i := range bids {
		bids[i] = auction.Bid{CampaignID: fmt.Sprintf("camp-%06d", i), CapCPM: money.FromDollars(2 + 0.5*float64(i%16))}
	}
	rng, market := stats.NewRNG(seed), auction.DefaultMarket()
	const runs = 20000
	won := 0
	start := time.Now()
	for i := 0; i < runs; i++ {
		if auction.Run(bids, market, rng).Won {
			won++
		}
	}
	elapsed := time.Since(start)
	_ = won // keeps the call from being optimised away
	return float64(elapsed.Nanoseconds()) / runs
}
