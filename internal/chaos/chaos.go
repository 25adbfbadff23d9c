// Package chaos is the deterministic fault-injection harness that proves
// the platform's crash and partition story end-to-end. One Run boots a
// multi-shard cluster of shard nodes on an in-memory network — every member
// behind the shard wire, as a router reaches a fleet — whose disks and
// links go through the faults package's seams, drives the concurrent
// workload at it for several rounds while injecting scheduled failures —
// short writes, failed fsyncs, torn renames, dropped and duplicated and
// mid-body-reset requests, partitions, and whole-shard crashes — then
// quiesces and checks the invariants that must hold no matter what the
// schedule did:
//
//   - durability: every impression acknowledged to a user survives into
//     the merged post-recovery campaign totals;
//   - accounting: the platform never bills impressions beyond what was
//     acknowledged plus the slots of operations that failed
//     indeterminately (and exactly equals acked when nothing was
//     indeterminate);
//   - no double billing: the ledger's impression and reach totals equal a
//     recount of every user feed, and the cluster's advertiser-visible
//     report equals billing.MakeReport over the merged exact totals;
//   - convergence: replicated advertiser state (advertiser set, campaign
//     ownership, campaign counter) is identical on every shard, and a
//     live replicated mutation still succeeds;
//   - recovery identity: each shard's state marshals byte-identically
//     before a clean close and after reopening from disk;
//   - replication (with Replicas > 0): after healing, every follower is
//     following, synced, and byte-identical to its slot's owner — and the
//     harness kills one slot's owner mid-round each round, promotes a
//     follower, and demands that no acknowledged write was lost across
//     the failover;
//   - membership (always, and under fire with Reshard): every user lives
//     on exactly the slot the current ring assigns it, on no other, and
//     the final ring version and user placement are a pure function of
//     the membership changes — identical whether or not faults fired;
//   - coverage: every configured fault kind actually reached its
//     injection point — a silently dead seam fails the run rather than
//     passing vacuously.
//
// The whole schedule is a pure function of Config.Seed (see the faults
// package for the per-site derivation), so a failing seed printed by the
// chaos binary replays the identical fault schedule. With Workers == 1
// the run is fully deterministic end to end: same seed, same ops, same
// faults, same Result — except that a mid-round reshard races the driver
// by design, so Reshard runs reproduce their invariants and final
// placement rather than exact operation outcomes.
package chaos

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/health"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
	"github.com/treads-project/treads/internal/workload"
)

// Config parameterizes one chaos run. The zero value is not runnable; use
// DefaultConfig as the base.
type Config struct {
	// Seed determines the entire fault schedule, the workload, the crash
	// and partition decisions, and every shard's platform seed.
	Seed uint64
	// Shards, Users, Campaigns size the simulated deployment.
	Shards    int
	Users     int
	Campaigns int
	// Rounds alternates drive-under-faults with crash/restart decisions.
	Rounds int
	// OpsPerRound is the total operation budget per round, split across
	// Workers driver goroutines. Workers == 1 makes the run fully
	// deterministic (the multiset of operations is deterministic either
	// way; interleaving is not).
	OpsPerRound int
	Workers     int
	// BrowseSlots per Browse operation (the accounting upper bound for a
	// browse that errored indeterminately).
	BrowseSlots int
	// CrashProb is the per-shard probability of a crash after each round.
	// Independently, one shard is always crashed after the first round so
	// every run exercises recovery.
	CrashProb float64
	// Replicas attaches this many journal-shipping followers to every ring
	// slot. Each round the harness kills one slot's owner halfway through
	// the traffic (reads fail over, writes refuse with the typed
	// unavailability error), promotes the best follower shortly after, and
	// heals the demoted member back into the chain at round end. An owner
	// node ships from its own process, armed over the rearm RPC.
	Replicas int
	// AutoFailover replaces the scripted mid-round promotion with the
	// real detection loop: a health supervisor probes every slot's owner,
	// and when the kill schedule takes one down the supervisor — not the
	// harness — declares it dead and promotes the best follower, with no
	// admin call anywhere in the path. Requires Replicas > 0. Promotion
	// timing is wall-clock (the detector needs consecutive missed
	// probes), so the number of refused ops between kill and promotion
	// varies run to run; every invariant the harness checks must still
	// hold on every schedule.
	AutoFailover bool
	// Reshard grows the cluster by one slot in the middle round, with the
	// migration running concurrently with the round's driven traffic and
	// fault schedule. If the mid-round attempt loses its race with the
	// fault schedule it is retried on the recovered cluster (the joiner
	// re-bootstrap wipes partial imports), so membership always converges.
	Reshard bool
	// PartitionProb is the per-round probability of cutting the router's
	// link to one node; while it is positive, round 0 always cuts one.
	PartitionProb float64
	// Disk configures filesystem fault probabilities for every shard's
	// journal directory.
	Disk faults.DiskConfig
	// Link configures the faults on the router's links to the nodes. The
	// nodes' own links, owner to follower, carry none.
	Link faults.NetConfig
	// SegmentBytes is passed to each shard's journal; small segments make
	// rotation, snapshot shadowing, and tail repair happen constantly
	// instead of rarely.
	SegmentBytes int64
	// Dir is the scratch directory for shard journals. Empty creates a
	// temp dir, removed again when the run passes (kept on failure, and
	// always kept when Keep is set, so a failing seed's disk state is
	// inspectable).
	Dir  string
	Keep bool
	// Registry receives the injector's fault counters; nil uses a private
	// registry so harness runs don't pollute the process-global exporter.
	Registry *obs.Registry
	// Logf, when set, receives progress lines (the chaos binary wires
	// this to stdout; tests wire it to t.Logf).
	Logf func(format string, args ...any)
}

// DefaultConfig returns a run sized for CI smoke: a few seconds per seed,
// every disk and link fault kind reachable, crashes every run.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		Shards:        3,
		Users:         96,
		Campaigns:     2,
		Rounds:        3,
		OpsPerRound:   160,
		Workers:       1,
		BrowseSlots:   3,
		CrashProb:     0.4,
		PartitionProb: 0.3,
		Disk: faults.DiskConfig{
			ShortWrite:  0.005,
			WriteError:  0.005,
			SyncError:   0.008,
			RenameError: 0.25,
		},
		// Occasional refused dials, frequent small delays, duplicated
		// idempotent deliveries, and rare mid-body resets. What may
		// arrive twice is the protocol's read surface, by its table.
		Link: faults.NetConfig{
			DialError:     0.02,
			Delay:         0.25,
			DelayMax:      5 * time.Millisecond,
			Duplicate:     0.25,
			ResetBody:     0.05,
			DuplicableOps: rpc.ReadOps(),
		},
		SegmentBytes: 16 << 10,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Seed)
	c.Shards = orDefault(c.Shards, d.Shards)
	c.Users = orDefault(c.Users, d.Users)
	c.Campaigns = orDefault(c.Campaigns, d.Campaigns)
	c.Rounds = orDefault(c.Rounds, d.Rounds)
	c.OpsPerRound = orDefault(c.OpsPerRound, d.OpsPerRound)
	c.Workers = orDefault(c.Workers, d.Workers)
	c.BrowseSlots = orDefault(c.BrowseSlots, d.BrowseSlots)
	c.SegmentBytes = orDefault(c.SegmentBytes, d.SegmentBytes)
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// orDefault is v, or d when v is not positive.
func orDefault[T int | int64](v, d T) T {
	if v <= 0 {
		return d
	}
	return v
}

// Violation is one invariant the run broke. Any violation means a real
// bug (in the platform or in the harness); the seed reproduces it.
type Violation struct {
	Invariant string // durability, accounting, billing, convergence, recovery, coverage
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result is what one chaos run did and found.
type Result struct {
	Seed               uint64
	Ops                int64
	AckedImpressions   int64
	IndeterminateSlots int64
	DefiniteFailures   int64
	Crashes            int
	Partitions         int
	// OwnerKills and Promotions count the mid-round owner kills and the
	// follower promotions that answered them (Replicas > 0 only).
	OwnerKills int
	Promotions int
	// FailoverLatencies records each automatic promotion's down-verdict→
	// promoted latency, in promotion order (AutoFailover only).
	FailoverLatencies []time.Duration
	// Reshards counts completed live membership changes; RingVersion and
	// PlacementHash capture the final membership and user placement — both
	// are pure functions of the membership changes, so a faulted run must
	// produce the same values as a fault-free run of the same seed.
	Reshards      int
	RingVersion   uint64
	PlacementHash uint64
	// Faults and Opportunities are the injector's per-kind fire and
	// reach counts (plus harness-driven kinds: crash tears, partitions).
	Faults        map[faults.Kind]uint64
	Opportunities map[faults.Kind]uint64
	Violations    []Violation
	Dir           string
	// Traces holds one assembled trace per round, in round order. Each
	// round runs under a root span that accrues the harness's decisions —
	// partitions, owner kills, promotions, crashes, reshards — as
	// timestamped events, and the round's trace ID appears in its Logf
	// lines, so a violation's timeline is inspectable: the chaos binary
	// dumps these traces when a run fails.
	Traces []trace.TraceWire
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

func (r *Result) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// slotGroup is the harness's view of one ring slot: its member nodes in
// boot order and the replica set routing to them, which alone knows which
// of them owns the slot now.
type slotGroup struct {
	nodes []*node
	rs    *cluster.ReplicaSet
}

// owner is the node at the head of the slot's chain.
func (g *slotGroup) owner() *node { return g.rs.Owner().(*member).n }

// followers are the slot's nodes other than its owner.
func (g *slotGroup) followers() []*node {
	own := g.owner()
	return slices.DeleteFunc(slices.Clone(g.nodes), func(n *node) bool { return n == own })
}

// harness is the mutable state of one run.
type harness struct {
	cfg Config
	inj *faults.Injector
	// hrng drives the harness's own decisions (which shard to crash or
	// partition) — separate from the injector's per-site streams so
	// harness choices don't shift fault schedules.
	hrng  *stats.RNG
	mn    *rpc.MemNet // the network every node serves on
	nodes []*node
	slots []*slotGroup
	clu   *cluster.Cluster

	// ownerKills and promotions are written from driver goroutines (the
	// kill schedule rides the workload's Observe hook), hence atomic.
	ownerKills atomic.Int64
	promotions atomic.Int64

	// failMu guards failLat, appended from supervisor goroutines
	// (AutoFailover only).
	failMu  sync.Mutex
	failLat []time.Duration

	advertiser string
	campaigns  []string
	px         pixel.PixelID
	users      []profile.UserID

	// tracer records one root span per round (always sampled, private
	// ring); roundIDs remembers each round's trace ID for the post-run
	// dump.
	tracer   *trace.Tracer
	roundIDs []trace.TraceID

	ledger ackLedger
}

// Run executes one chaos schedule and returns what it found. A non-nil
// error means the harness itself could not run (scratch dir, boot
// failure); invariant breaks are reported as Result.Violations, not
// errors.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas > 0 && cfg.Workers > 1 {
		// Promotion is only sound once the demoted owner has no writes in
		// flight (a real deployment fences the old owner first). With one
		// driver goroutine the kill and promote points sit between
		// operations, so the drain is structural.
		return nil, errors.New("chaos: the owner-kill schedule requires workers=1 (promotion must not race in-flight writes on the demoted owner)")
	}
	if cfg.AutoFailover && cfg.Replicas == 0 {
		return nil, errors.New("chaos: AutoFailover requires Replicas > 0 (the supervisor promotes journal-shipping followers)")
	}
	res := &Result{Seed: cfg.Seed}

	dir := cfg.Dir
	cleanup := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "treads-chaos-*")
		if err != nil {
			return nil, err
		}
		cleanup = !cfg.Keep
	}
	res.Dir = dir

	treg := cmp.Or(cfg.Registry, obs.NewRegistry())
	h := &harness{
		cfg:        cfg,
		inj:        faults.NewInjector(cfg.Seed, cfg.Registry),
		hrng:       stats.NewRNG(stats.SubSeed(cfg.Seed, 0xC4A05)),
		mn:         rpc.NewMemNet(),
		advertiser: "chaos",
		// Sampling at 1 with its own seed sub-stream: round tagging never
		// perturbs the harness's own decision RNG or the fault schedule.
		tracer: trace.NewTracer(trace.Options{
			Service:       "chaos",
			SampleRate:    1,
			RingSize:      1024,
			SlowThreshold: -1,
			Seed:          stats.SubSeed(cfg.Seed, 0x7a11),
			Registry:      treg,
		}),
	}
	h.ledger.acked = make(map[string]int64)

	err := h.boot(dir)
	if err == nil {
		err = h.setup()
	}
	if err == nil {
		err = h.rounds(res)
	}
	if err != nil {
		h.shutdown()
		return res, err
	}
	h.quiesce(res)
	h.verify(res)
	h.probeReplication(res)
	h.shutdown()

	res.Ops = h.ledger.ops
	res.AckedImpressions = h.ledger.ackedTotal
	res.IndeterminateSlots = h.ledger.indeterminate
	res.DefiniteFailures = h.ledger.definite
	res.OwnerKills = int(h.ownerKills.Load())
	res.Promotions = int(h.promotions.Load())
	res.FailoverLatencies = h.failLat
	res.Faults = h.inj.Counts()
	res.Opportunities = h.inj.Opportunities()
	h.coverage(res)
	res.Traces = h.roundTraces()

	if cleanup && !res.Failed() {
		os.RemoveAll(dir)
		res.Dir = ""
	}
	return res, nil
}

// boot creates the per-slot node groups on fault-injecting filesystems
// and assembles the cluster over them.
func (h *harness) boot(dir string) error {
	cfg := h.cfg
	shards := make([]*cluster.ReplicaSet, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		g, err := h.newSlot(dir, i)
		if err != nil {
			return err
		}
		h.slots = append(h.slots, g)
		h.nodes = append(h.nodes, g.nodes...)
		shards[i] = g.rs
	}
	clu, err := cluster.NewFromSets(shards, cluster.Options{Workers: cfg.Workers})
	if err != nil {
		return err
	}
	h.clu = clu
	return nil
}

// newSlot creates the shard nodes of one ring slot — an owner plus
// cfg.Replicas journal-shipping followers — and returns the harness
// bookkeeping group with the armed replica set the cluster routes to. All
// members boot from the same platform seed (a fresh follower must start
// byte-identical to a fresh owner for a replay from LSN 0 to converge);
// each member's journal directory gets its own fault-stream scope, so
// adding followers never shifts an owner disk's fault schedule.
func (h *harness) newSlot(dir string, slot int) (*slotGroup, error) {
	cfg := h.cfg
	g := &slotGroup{}
	var members []cluster.Shard
	pseed := stats.SubSeed(cfg.Seed, uint64(100+slot))
	for j := 0; j <= cfg.Replicas; j++ {
		name := fmt.Sprintf("shard%d", slot)
		if j > 0 {
			name = fmt.Sprintf("shard%d-r%d", slot, j)
		}
		ndir := filepath.Join(dir, name)
		if err := os.MkdirAll(ndir, 0o755); err != nil {
			return nil, err
		}
		ffs := faults.NewFaultFS(faults.OS{}, h.inj, cfg.Disk, name+"/")
		// Elide the real fsyncs (the durable-watermark simulation is what
		// matters) so a chaos sweep is CPU-bound, not disk-bound.
		ffs.SkipSync = true
		n := &node{
			idx: slot*(cfg.Replicas+1) + j,
			dir: ndir,
			ffs: ffs,
			jopts: journal.Options{
				SegmentBytes: cfg.SegmentBytes,
				FS:           ffs,
			},
			boot: func() (*platform.Platform, error) {
				return platform.New(platform.Config{Seed: pseed}), nil
			},
		}
		if err := n.open(); err != nil {
			return nil, err
		}
		if j > 0 {
			n.Platform.BeginFollow(0)
		}
		if err := n.serve(h.mn, h.inj, cfg.Link); err != nil {
			return nil, err
		}
		g.nodes = append(g.nodes, n)
		members = append(members, n.remote)
	}
	g.rs = cluster.NewReplicaSet(members[0], members[1:]...)
	return g, g.rs.Chain()
}

// setup seeds the population and advertiser surface with faults disarmed:
// replicated mutations have no partial-failure recovery by design (the
// cluster treats replication divergence as fatal), so the harness only
// injects faults into the user-facing traffic it can account for. Campaign
// 0 targets the pixel's visitors and campaign 1 a lookalike of the first 12
// users, so visitor and seed rows go through every reshard and recovery.
func (h *harness) setup() error {
	cfg := h.cfg
	profiles := workload.Generate(workload.Config{
		Users:             cfg.Users,
		BrokerCoverage:    0.8,
		MeanPlatformAttrs: 12,
		MeanPartnerAttrs:  6,
		Seed:              stats.SubSeed(cfg.Seed, 7),
	})
	for _, pr := range profiles {
		if err := h.clu.AddUser(pr); err != nil {
			return fmt.Errorf("seeding users: %w", err)
		}
		h.users = append(h.users, pr.ID)
	}
	if err := h.clu.RegisterAdvertiser(h.advertiser); err != nil {
		return err
	}
	px, err := h.clu.IssuePixel(h.advertiser)
	if err != nil {
		return err
	}
	h.px = px
	for i, uid := range h.users {
		if i%2 == 0 {
			if err := h.clu.VisitPage(uid, px); err != nil {
				return fmt.Errorf("seeding pixel visits: %w", err)
			}
		}
		if i < 12 {
			if err := h.clu.LikePage(uid, "chaos-fans"); err != nil {
				return fmt.Errorf("seeding page likes: %w", err)
			}
		}
	}
	visitors, err := h.clu.CreateAudience(h.advertiser, audience.Def{Kind: audience.KindWebsite, Name: "visitors", Pixel: px})
	if err != nil {
		return fmt.Errorf("seeding website audience: %w", err)
	}
	fans, err := h.clu.CreateAudience(h.advertiser, audience.Def{Kind: audience.KindEngagement, Name: "fans", Page: "chaos-fans"})
	if err != nil {
		return fmt.Errorf("seeding engagement audience: %w", err)
	}
	lookalike, err := h.clu.CreateAudience(h.advertiser, audience.Def{Kind: audience.KindLookalike, Name: "like the fans", Seed: fans})
	if err != nil {
		return fmt.Errorf("seeding lookalike audience: %w", err)
	}
	targets := []audience.AudienceID{visitors, lookalike}
	for j := 0; j < cfg.Campaigns; j++ {
		params := chaosCampaign(fmt.Sprintf("chaos-%d", j))
		if j < len(targets) {
			params.Spec.Include = targets[j : j+1]
		}
		id, err := h.clu.CreateCampaign(h.advertiser, params)
		if err != nil {
			return fmt.Errorf("seeding campaigns: %w", err)
		}
		h.campaigns = append(h.campaigns, id)
	}
	return nil
}

// rounds alternates driving the workload under armed faults with
// crash/partition/heal decisions between rounds. With replicas enabled
// each round also kills one slot's owner mid-traffic and promotes a
// follower; with Reshard the middle round grows the membership by one
// slot concurrently with the traffic.
func (h *harness) rounds(res *Result) error {
	cfg := h.cfg
	forced := h.hrng.Intn(cfg.Shards) // one guaranteed crash target
	reshardRound := -1
	if cfg.Reshard {
		reshardRound = cfg.Rounds / 2
	}
	for r := 0; r < cfg.Rounds; r++ {
		// Every round runs under a root span: the harness's decisions land
		// on it as events, and the trace ID tags the round's log lines so
		// a violation's timeline can be pulled from Result.Traces.
		_, rsp := h.tracer.StartRoot(context.Background(), "chaos.round")
		rsp.Annotate("round", strconv.Itoa(r))
		rsp.Annotate("seed", strconv.FormatUint(cfg.Seed, 10))
		tid, _ := rsp.IDs()
		h.roundIDs = append(h.roundIDs, tid)
		cfg.Logf("round %d: trace %s", r, tid)

		// The joiner slot boots quiet (journal creation is not the surface
		// under test); the migration itself runs under the full fault load,
		// concurrent with the round's traffic.
		var joiner *slotGroup
		if r == reshardRound {
			var err error
			joiner, err = h.newSlot(res.Dir, len(h.slots))
			if err != nil {
				return fmt.Errorf("creating joiner slot: %w", err)
			}
		}

		h.inj.Arm(true)

		// Snapshot at round start, when every journal is fresh from
		// recovery and healthy: this guarantees the snapshot-publish
		// seams (tmp write, rename, dir sync) are reached every round
		// even on schedules where faults later kill every journal
		// before the end-of-round compaction.
		h.compactHealthy()

		var partitioned []int
		if cfg.PartitionProb > 0 && (r == 0 || h.hrng.Float64() < cfg.PartitionProb) {
			p := h.hrng.Intn(len(h.nodes))
			h.nodes[p].tr.SetPartitioned(true)
			partitioned = append(partitioned, p)
			res.Partitions++
			rsp.Event("partition shard " + strconv.Itoa(p))
			cfg.Logf("round %d: partitioned shard %d", r, p)
		}

		observe, killed := h.armKill(r, rsp)

		// With AutoFailover the supervisor runs only while the round's
		// traffic does: it must be quiesced before the crash sweep, which
		// replaces journal handles under recovering nodes.
		var sup *health.Supervisor
		if cfg.AutoFailover {
			sup = h.startSupervisor(r, rsp)
		}

		reshardDone := make(chan error, 1)
		if joiner != nil {
			go func() {
				_, err := h.clu.AddSet(joiner.rs)
				reshardDone <- err
			}()
		}

		ds := workload.Drive(h.clu, workload.DriverConfig{
			Goroutines:      cfg.Workers,
			OpsPerGoroutine: max(1, cfg.OpsPerRound/cfg.Workers),
			Users:           h.users,
			Pixels:          []pixel.PixelID{h.px},
			BrowseSlots:     cfg.BrowseSlots,
			Seed:            stats.SubSeed(cfg.Seed, uint64(1000+r)),
			Observe:         observe,
		})
		rsp.Annotate("ops", strconv.FormatInt(ds.Ops(), 10))
		rsp.Annotate("errors", strconv.FormatInt(ds.Errors, 10))
		cfg.Logf("round %d: %d ops, %d errors", r, ds.Ops(), ds.Errors)

		joined := false
		if joiner != nil {
			err := <-reshardDone
			h.nodes = append(h.nodes, joiner.nodes...)
			if err == nil {
				h.slots = append(h.slots, joiner)
				res.Reshards++
				joined = true
				rsp.Event("reshard joined mid-traffic")
				cfg.Logf("round %d: slot %d joined mid-traffic (ring v%d, %d users moved)",
					r, len(h.slots)-1, h.clu.Version(), h.clu.LastReshard().UsersMoved)
			} else {
				rsp.Event("reshard lost its race")
				cfg.Logf("round %d: mid-round AddSet lost its race with the fault schedule (%v); will retry recovered", r, err)
			}
		}

		if sup != nil {
			h.settleAuto(res, r, rsp, killed)
			sup.Close()
		}

		// Snapshot again under full post-traffic state. A failed
		// snapshot is not sticky; a failed pre-snapshot fsync is.
		h.compactHealthy()

		h.inj.Arm(false)
		for _, p := range partitioned {
			h.nodes[p].tr.SetPartitioned(false)
		}

		for i, n := range h.nodes {
			sticky := n.Platform.JournalFailed() != nil
			downed := n.down.Load()
			if !sticky && !downed && !(r == 0 && i == forced) && h.hrng.Float64() >= cfg.CrashProb {
				continue
			}
			switch {
			case sticky:
				cfg.Logf("round %d: shard %d journal failed sticky; crash-recovering", r, i)
			case downed:
				cfg.Logf("round %d: crash-recovering killed owner (node %d)", r, i)
			default:
				cfg.Logf("round %d: crashing shard %d", r, i)
			}
			if err := n.crash(); err != nil {
				return err
			}
			n.down.Store(false)
			res.Crashes++
			rsp.Event("crash-recover node " + strconv.Itoa(i))
		}
		if err := h.awaitHealthy(); err != nil {
			return err
		}

		// A mid-round membership change that lost its race with the fault
		// schedule is retried on the recovered, quiet cluster — the joiner
		// re-bootstrap wipes the failed attempt's partial imports, so the
		// retry starts clean. This runs before the heal so a joiner whose
		// owner just crash-recovered gets its chain re-armed below.
		if joiner != nil && !joined {
			if _, err := h.clu.AddSet(joiner.rs); err != nil {
				rsp.SetError(err)
				res.violate("membership", "retrying AddSet on the recovered cluster: %v", err)
			} else {
				h.slots = append(h.slots, joiner)
				res.Reshards++
				rsp.Event("reshard joined on retry")
				cfg.Logf("round %d: slot %d joined on retry (ring v%d)", r, len(h.slots)-1, h.clu.Version())
			}
		}

		// Recovery replaced platform handles (dropping shipper closures)
		// and left reopened followers out of follow mode: re-arm every
		// chain and resync every follower before the next round's traffic.
		h.healReplicas(res)
		rsp.Finish()
	}
	return nil
}

// roundTraces assembles the rounds' span trees from the harness tracer's
// ring, in round order.
func (h *harness) roundTraces() []trace.TraceWire {
	byID := make(map[string]trace.TraceWire)
	for _, tw := range trace.GroupTraces(h.tracer.WireSnapshot()) {
		byID[tw.TraceID] = tw
	}
	out := make([]trace.TraceWire, 0, len(h.roundIDs))
	for _, id := range h.roundIDs {
		if tw, ok := byID[id.String()]; ok {
			out = append(out, tw)
		}
	}
	return out
}

// armKill returns the round's workload Observe callback and, with the
// automatic mode on, the slot group whose owner the schedule kills.
// Without replicas the callback is just the ledger; with replicas it
// layers the owner-kill schedule on top: halfway through the round one
// slot's owner stops answering (reads fail over to its followers,
// writes refuse with the typed unavailability error — all accounted as
// definite failures), and an eighth of a round later the harness
// promotes the best follower, the explicit operator decision the manual
// failover protocol requires. With AutoFailover the scripted promotion
// is dropped: the kill still fires on schedule, but recovery is the
// health supervisor's problem. The demoted owner is crash-recovered and
// healed back in at round end. The kill and the promotion land on the
// round span as events.
func (h *harness) armKill(r int, rsp *trace.Span) (func(workload.OpResult), *slotGroup) {
	if h.cfg.Replicas == 0 {
		return h.ledger.observe, nil
	}
	slot := h.hrng.Intn(len(h.slots))
	g := h.slots[slot]
	killAt := int64(max(2, h.cfg.OpsPerRound/2))
	promoteAt := killAt + int64(max(1, h.cfg.OpsPerRound/8))
	var ops atomic.Int64
	var promoting atomic.Bool
	observe := func(op workload.OpResult) {
		h.ledger.observe(op)
		n := ops.Add(1)
		if n == killAt {
			g.owner().kill()
			h.ownerKills.Add(1)
			rsp.Event("killed slot " + strconv.Itoa(slot) + "'s owner")
			h.cfg.Logf("round %d: killed slot %d's owner mid-round", r, slot)
		}
		if h.cfg.AutoFailover || n < promoteAt || !promoting.CompareAndSwap(false, true) {
			return
		}
		idx, err := g.rs.Promote(false)
		if err != nil {
			// Nothing promotable on this schedule (the followers are
			// down too); the slot stays write-refusing — every refusal
			// a definite, accounted failure — and later ops retry.
			promoting.Store(false)
			return
		}
		h.promotions.Add(1)
		rsp.Event("promoted slot " + strconv.Itoa(slot) + "'s follower " + strconv.Itoa(idx))
		h.cfg.Logf("round %d: promoted slot %d's follower %d to owner", r, slot, idx)
	}
	if h.cfg.AutoFailover {
		return observe, g
	}
	return observe, nil
}

// startSupervisor arms one health supervisor over the round's slots.
// Probes are in-memory health reads, so the interval can be tight: a
// killed owner is declared down after the detector's miss threshold
// (~tens of milliseconds), well inside the round's remaining traffic.
func (h *harness) startSupervisor(r int, rsp *trace.Span) *health.Supervisor {
	cfg := h.cfg
	return health.NewSupervisor(autoFleet(slices.Clone(h.slots)), health.Config{
		Interval: 10 * time.Millisecond,
		OnFailover: func(slot int, d time.Duration) {
			h.failMu.Lock()
			h.failLat = append(h.failLat, d)
			h.failMu.Unlock()
			h.promotions.Add(1)
			rsp.Event("supervisor promoted slot " + strconv.Itoa(slot) + "'s follower (" + d.String() + " after down verdict)")
			cfg.Logf("round %d: supervisor promoted slot %d's best follower %v after the down verdict", r, slot, d)
		},
	})
}

// autoFleet is the health supervisor's fleet in the harness — the one
// fleet that is not a *cluster.Cluster: the slot groups as the round
// began (a slot that joins mid-round is supervised from the next round
// on). Failover is version-neutral — the harness's nodes hold no gate to
// fence, so the determinism pins (ring version, placement hash) stay pure
// functions of the membership schedule. Healing remains the round-end
// sweep's job (recovery replaces journal handles, which only the harness
// may do), so no slot is ever degraded here.
type autoFleet []*slotGroup

func (f autoFleet) Shards() int { return len(f) }

func (f autoFleet) ProbeSlotOwner(_ context.Context, slot int) error {
	if hc, ok := f[slot].rs.Owner().(cluster.HealthReporter); ok && !hc.Healthy() {
		return cluster.ErrShardUnavailable
	}
	return nil
}

func (f autoFleet) FailoverSlot(slot int, force bool) (int, error) {
	return f[slot].rs.Promote(force)
}

func (autoFleet) SlotDegraded(int) bool { return false }
func (autoFleet) HealSlot(int) error    { return nil }

// settleAuto closes an auto-failover round: if the kill schedule took an
// owner down, the supervisor — not the harness — must promote a
// follower, and a short post-promotion batch then proves the cluster
// serves again with no admin call anywhere in the loop. A schedule whose
// faults left no promotable follower for 100 ms (longer than a promotion
// in flight keeps its follower out of follow mode) is logged, not
// violated: the slot refuses writes, every refusal accounted, exactly
// like the scripted mode's unpromotable rounds.
func (h *harness) settleAuto(res *Result, r int, rsp *trace.Span, killed *slotGroup) {
	if killed == nil {
		return
	}
	cfg := h.cfg
	deadline := time.Now().Add(10 * time.Second)
	var stuckSince time.Time
	for !killed.owner().remote.Healthy() {
		switch {
		case h.anyPromotable(killed):
			stuckSince = time.Time{}
		case stuckSince.IsZero():
			stuckSince = time.Now()
		case time.Since(stuckSince) > 100*time.Millisecond:
			rsp.Event("no promotable follower on this schedule; slot stays refusing until round-end heal")
			cfg.Logf("round %d: no promotable follower (fault schedule took the followers too); slot refuses writes until the round-end heal", r)
			return
		}
		if time.Now().After(deadline) {
			res.violate("recovery", "round %d: supervisor did not promote a follower within 10s of the owner kill", r)
			rsp.Event("supervisor promotion timed out")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	ds := workload.Drive(h.clu, workload.DriverConfig{
		Goroutines:      1,
		OpsPerGoroutine: max(4, cfg.OpsPerRound/8),
		Users:           h.users,
		Pixels:          []pixel.PixelID{h.px},
		BrowseSlots:     cfg.BrowseSlots,
		Seed:            stats.SubSeed(cfg.Seed, uint64(2000+r)),
		Observe:         h.ledger.observe,
	})
	rsp.Event("post-promotion traffic: " + strconv.FormatInt(ds.Ops(), 10) + " ops")
	cfg.Logf("round %d: post-promotion traffic: %d ops, %d errors — served with no admin intervention", r, ds.Ops(), ds.Errors)
}

// anyPromotable reports whether the slot has a follower a promotion
// could elect: alive journal, still following, fully caught up.
func (h *harness) anyPromotable(g *slotGroup) bool {
	for _, n := range g.followers() {
		if st, _ := n.Platform.FollowStatus(); n.remote.Healthy() && st.Synced {
			return true
		}
	}
	return false
}

// healReplicas reinstalls every follower and re-arms every chain after a
// recovery sweep: crash recovery replaces platform handles (dropping the
// shipper closure, which lives on the handle) and reopened followers come
// back out of follow mode. Heal does both.
func (h *harness) healReplicas(res *Result) {
	for si, g := range h.slots {
		if err := g.rs.Heal(); err != nil {
			res.violate("replication", "slot %d: healing followers after recovery: %v", si, err)
		}
	}
}

// awaitHealthy probes every node through its fault-wrapped client until
// all answer, which closes their circuit breakers, so restarted shards are
// back in rotation before the next round (or the final verification)
// begins.
func (h *harness) awaitHealthy() error {
	remotes := make([]*cluster.RemoteShard, len(h.nodes))
	for i, n := range h.nodes {
		remotes[i] = n.remote.RemoteShard
	}
	return shardnode.WaitForPeers(remotes, 5*time.Second, log.New(io.Discard, "", 0))
}

// compactHealthy snapshots every shard whose journal is still serving, as
// each node's own process would —
// the snapshot-publish path (tmp write, fsync, rename, dir sync) is a
// fault surface of its own, so the harness drives it deliberately while
// armed. Errors are expected and ignored: snapshot failure is not sticky,
// and a pre-snapshot fsync failure is picked up by the round's
// crash/recovery sweep.
func (h *harness) compactHealthy() {
	for _, n := range h.nodes {
		if n.Platform.JournalFailed() == nil {
			n.Platform.Compact()
		}
	}
}

// shutdown tears everything down; safe to call after partial boot.
func (h *harness) shutdown() {
	for _, n := range h.nodes {
		if n.sn != nil {
			n.sn.Kill()
			n.remote.Close()
		}
		if n.Platform != nil {
			n.Platform.Close()
		}
	}
}

// chaosCampaign is the broad-targeting campaign the harness delivers
// against: every adult qualifies, so auctions always have a bidder.
func chaosCampaign(name string) platform.CampaignParams {
	return platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(18, 80)")},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: name, Body: "chaos harness filler"},
	}
}

// ackLedger is the harness's own account of what the platform
// acknowledged to users, kept from the driver's Observe callback. It is
// the "client side" of the durability invariant.
type ackLedger struct {
	mu            sync.Mutex
	acked         map[string]int64
	ackedTotal    int64
	indeterminate int64
	definite      int64
	ops           int64
}

// observe classifies one driver operation. A success is acked (the
// platform must never lose it). An ErrShardUnavailable failure was
// provably refused before reaching the shard. Any other browse failure is
// indeterminate — the shard may have committed up to Slots impressions
// before the error — and widens the accounting upper bound by that much.
func (l *ackLedger) observe(r workload.OpResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	if r.Err == nil {
		for _, imp := range r.Impressions {
			l.acked[imp.CampaignID]++
			l.ackedTotal++
		}
		return
	}
	if errors.Is(r.Err, cluster.ErrShardUnavailable) {
		l.definite++
		return
	}
	if r.Op == workload.OpBrowse {
		l.indeterminate += int64(r.Slots)
	}
}
