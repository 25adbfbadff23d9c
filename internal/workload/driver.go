package workload

import (
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// Target is the user-facing platform surface the concurrent driver
// exercises. *platform.Platform, *platform.Journaled, *cluster.Cluster and
// *httpapi.DriverTarget all satisfy it, so the same traffic generator
// measures any backend.
type Target interface {
	BrowseFeed(profile.UserID, int) ([]ad.Impression, error)
	VisitPage(profile.UserID, pixel.PixelID) error
	LikePage(profile.UserID, string) error
	AdPreferences(profile.UserID) ([]attr.ID, error)
}

// OpMix weights the driver's operation types. Zero-weight operations are
// never issued; an all-zero mix browses only.
type OpMix struct {
	Browse int
	Visit  int
	Like   int
	Prefs  int
}

// DefaultOpMix approximates feed-heavy consumer traffic.
func DefaultOpMix() OpMix { return OpMix{Browse: 60, Visit: 15, Like: 15, Prefs: 10} }

// DriverConfig parameterizes a concurrent driver run.
type DriverConfig struct {
	// Goroutines is the number of concurrent workers (default 4).
	Goroutines int
	// OpsPerGoroutine is how many operations each worker issues
	// (default 100).
	OpsPerGoroutine int
	// Users is the population to draw from; required.
	Users []profile.UserID
	// Pixels are fired by Visit operations; with none, Visit weight is
	// folded into Browse.
	Pixels []pixel.PixelID
	// Pages are liked by Like operations (default: a small fixed set).
	Pages []string
	// BrowseSlots per Browse operation (default 5).
	BrowseSlots int
	// Mix weights the operation types (default DefaultOpMix).
	Mix OpMix
	// Seed makes each worker's operation sequence deterministic: worker g
	// draws from stats.SubSeed(Seed, g+1). Interleaving across workers is
	// scheduler-dependent; the multiset of issued operations is not.
	Seed uint64
	// Observe, when set, is called once per completed operation with its
	// outcome. It runs on the worker goroutine and must be safe for
	// concurrent use; the chaos harness uses it to keep its own ledger of
	// acknowledged impressions to reconcile against the platform's.
	Observe func(OpResult)
}

// OpResult describes one completed driver operation, as passed to
// DriverConfig.Observe.
type OpResult struct {
	Op   Op
	User profile.UserID
	// Impressions is the feed a successful Browse returned (nil for other
	// ops); Slots is what Browse asked for, an upper bound on what an
	// errored Browse may still have committed.
	Impressions []ad.Impression
	Slots       int
	Err         error
}

// DriverStats counts what a driver run did. Counters are totals across all
// workers.
type DriverStats struct {
	Browses     int64
	Impressions int64
	Visits      int64
	Likes       int64
	Prefs       int64
	// Errors counts operations the backend refused. Driving a well-formed
	// config against a consistent backend, this must be zero.
	Errors int64
	// Elapsed is the wall time of the run, first worker start to last
	// worker finish.
	Elapsed time.Duration
	// QPS is the realized operations-per-second of the run
	// (Ops()/Elapsed), recorded so stats snapshots carry throughput
	// without recomputation.
	QPS float64
}

// Ops returns the total operations issued.
func (s DriverStats) Ops() int64 { return s.Browses + s.Visits + s.Likes + s.Prefs }

// AchievedQPS returns the run's realized operations per second.
func (s DriverStats) AchievedQPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Ops()) / s.Elapsed.Seconds()
}

// Drive floods the target with a concurrent mixed workload and returns the
// aggregate counts. It blocks until every worker has issued its full
// budget. The driver targets the user-facing hot paths — the ones a
// sharded cluster parallelizes — and is what the cluster smoke tests and
// contention benchmarks run.
func Drive(t Target, cfg DriverConfig) DriverStats {
	if cfg.Goroutines <= 0 {
		cfg.Goroutines = 4
	}
	if cfg.OpsPerGoroutine <= 0 {
		cfg.OpsPerGoroutine = 100
	}
	if cfg.BrowseSlots <= 0 {
		cfg.BrowseSlots = 5
	}
	if cfg.Mix == (OpMix{}) {
		cfg.Mix = DefaultOpMix()
	}
	if len(cfg.Pixels) == 0 {
		cfg.Mix.Browse += cfg.Mix.Visit
		cfg.Mix.Visit = 0
	}
	if len(cfg.Pages) == 0 {
		cfg.Pages = []string{"page-alpha", "page-beta", "page-gamma"}
	}
	if len(cfg.Users) == 0 {
		return DriverStats{}
	}

	var st DriverStats
	// One RNG stream per worker, each touched by its own worker only.
	rngs := make([]*stats.RNG, cfg.Goroutines)
	for g := range rngs {
		rngs[g] = stats.NewRNG(stats.SubSeed(cfg.Seed, uint64(g+1)))
	}
	do := func(g, _ int) error {
		rng := rngs[g]
		res := OpResult{User: cfg.Users[rng.Intn(len(cfg.Users))]}
		switch res.Op = pickOp(cfg.Mix, rng); res.Op {
		case OpBrowse:
			res.Slots = cfg.BrowseSlots
			res.Impressions, res.Err = t.BrowseFeed(res.User, cfg.BrowseSlots)
			atomic.AddInt64(&st.Browses, 1)
			atomic.AddInt64(&st.Impressions, int64(len(res.Impressions)))
			driverOpsBrowse.Inc()
		case OpVisit:
			res.Err = t.VisitPage(res.User, cfg.Pixels[rng.Intn(len(cfg.Pixels))])
			atomic.AddInt64(&st.Visits, 1)
			driverOpsVisit.Inc()
		case OpLike:
			res.Err = t.LikePage(res.User, cfg.Pages[rng.Intn(len(cfg.Pages))])
			atomic.AddInt64(&st.Likes, 1)
			driverOpsLike.Inc()
		case OpPrefs:
			_, res.Err = t.AdPreferences(res.User)
			atomic.AddInt64(&st.Prefs, 1)
			driverOpsPrefs.Inc()
		}
		if res.Err != nil {
			atomic.AddInt64(&st.Errors, 1)
			driverOpErrors.Inc()
		}
		if cfg.Observe != nil {
			cfg.Observe(res)
		}
		return res.Err
	}
	const class = "drive"
	out := DriveOverload([]ClassLoad{{Name: class, Workers: cfg.Goroutines, Ops: cfg.OpsPerGoroutine, Do: do}})
	st.Elapsed = out[class].Elapsed
	st.QPS = st.AchievedQPS()
	achievedQPS.Set(st.QPS)
	return st
}

// Op identifies a driver operation kind.
type Op int

const (
	OpBrowse Op = iota
	OpVisit
	OpLike
	OpPrefs
)

// pickOp samples an operation kind proportionally to the mix weights.
func pickOp(mix OpMix, rng *stats.RNG) Op {
	total := mix.Browse + mix.Visit + mix.Like + mix.Prefs
	if total <= 0 {
		return OpBrowse
	}
	n := rng.Intn(total)
	if n < mix.Browse {
		return OpBrowse
	}
	n -= mix.Browse
	if n < mix.Visit {
		return OpVisit
	}
	n -= mix.Visit
	if n < mix.Like {
		return OpLike
	}
	return OpPrefs
}
