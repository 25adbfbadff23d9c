package index_test

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/index"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// benchUsers returns the benchmark population size. The acceptance target
// is 1M users/shard; CI's bench smoke overrides this down so a smoke run
// stays fast on shared runners.
func benchUsers() int {
	if s := os.Getenv("TREADS_INDEX_BENCH_USERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1_000_000
}

var benchOnce sync.Once
var benchState struct {
	users   int
	store   *profile.Store
	indexed *audience.Engine // EnableIndex'd
	scan    *audience.Engine // linear-scan engine over the same store
	spec    audience.Spec
}

// benchSetup builds one shared population: profiles stream straight from
// the generator into the store (the indexed engine's watcher indexes them
// as they land), so the slice of a million profiles is never materialized
// twice.
func benchSetup(tb testing.TB) {
	benchOnce.Do(func() {
		n := benchUsers()
		store := profile.NewStore()
		indexed := audience.NewEngine(store, pixel.NewRegistry())
		if err := indexed.EnableIndex(); err != nil {
			tb.Fatalf("EnableIndex: %v", err)
		}
		workload.Each(workload.Config{
			Users:             n,
			BrokerCoverage:    0.8,
			MeanPlatformAttrs: 25,
			MeanPartnerAttrs:  11,
			Seed:              42,
			Skew:              1.1,
		}, func(p *profile.Profile) {
			if err := store.Add(p); err != nil {
				tb.Fatalf("Add: %v", err)
			}
		})
		benchState.users = n
		benchState.store = store
		benchState.indexed = indexed
		benchState.scan = audience.NewEngine(store, pixel.NewRegistry())
		benchState.spec = audience.Spec{Expr: benchExpr()}
	})
}

// benchExpr is a representative campaign expression: head + torso
// attributes combined with demographics, the shape advertisers build.
func benchExpr() attr.Expr {
	catalog := attr.DefaultCatalog()
	plat := catalog.BySource(attr.SourcePlatform)
	part := catalog.BySource(attr.SourcePartner)
	return attr.And{Ops: []attr.Expr{
		attr.Or{Ops: []attr.Expr{
			attr.Has{ID: plat[0].ID},
			attr.Has{ID: plat[3].ID},
			attr.Has{ID: part[0].ID},
		}},
		attr.Not{Op: attr.Has{ID: plat[7].ID}},
		attr.AgeBetween{Min: 25, Max: 54},
	}}
}

// BenchmarkIndexPotentialReach is the acceptance benchmark: PotentialReach
// through the bitmap index at the full population size. The first
// iteration cross-checks the result against the linear-scan engine, so a
// passing run is also an equality proof at this scale.
func BenchmarkIndexPotentialReach(b *testing.B) {
	benchSetup(b)
	want, err := benchState.scan.PotentialReach(benchState.spec)
	if err != nil {
		b.Fatalf("scan PotentialReach: %v", err)
	}
	got, err := benchState.indexed.PotentialReach(benchState.spec)
	if err != nil {
		b.Fatalf("indexed PotentialReach: %v", err)
	}
	if got != want {
		b.Fatalf("indexed reach %d != scan reach %d at %d users", got, want, benchState.users)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchState.indexed.PotentialReach(benchState.spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchState.users), "users")
}

// BenchmarkScanPotentialReach is the baseline the index is judged against.
func BenchmarkScanPotentialReach(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchState.scan.PotentialReach(benchState.spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchState.users), "users")
}

// BenchmarkIndexBuild measures the bulk build: streaming every profile of
// the shared store into a fresh index. bytes/user is the built index's
// footprint, the figure docs/DESIGN.md sizes a shard's memory from.
func BenchmarkIndexBuild(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	var idx *index.Index
	for i := 0; i < b.N; i++ {
		idx = index.New(benchState.users)
		benchState.store.Each(func(p *profile.Profile) {
			if err := idx.Add(p); err != nil {
				b.Fatal(err)
			}
		})
	}
	idx.RefreshMemoryGauge()
	b.ReportMetric(float64(benchState.users), "users")
	b.ReportMetric(obs.Default.Gauge("index_memory_bytes", "").Value()/float64(benchState.users), "bytes/user")
}

// BenchmarkIndexSpecMatches measures delivery-time eligibility: a
// single-user probe through the index.
func BenchmarkIndexSpecMatches(b *testing.B) {
	benchSetup(b)
	p := benchState.store.Get(profile.UserID("user-000000"))
	if p == nil {
		b.Fatal("user-000000 missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchState.indexed.SpecMatches(benchState.spec, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBigIndexEquivalence is the full-scale differential check, gated
// behind TREADS_BIG=1 because it builds the whole benchmark population.
func TestBigIndexEquivalence(t *testing.T) {
	if os.Getenv("TREADS_BIG") == "" {
		t.Skip("set TREADS_BIG=1 to run the full-scale equivalence test")
	}
	benchSetup(t)
	exprs := []attr.Expr{
		benchExpr(),
		attr.MatchAll{},
		attr.AgeBetween{Min: 18, Max: 24},
		attr.And{Ops: []attr.Expr{attr.GenderIs{Gender: "female"}, attr.RegionIs{Region: "Seattle"}}},
	}
	for i, e := range exprs {
		spec := audience.Spec{Expr: e}
		got, err1 := benchState.indexed.PotentialReach(spec)
		want, err2 := benchState.scan.PotentialReach(spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("expr %d: errs %v / %v", i, err1, err2)
		}
		if got != want {
			t.Errorf("expr %d: indexed %d, scan %d", i, got, want)
		}
	}
	if _, _, err := benchState.indexed.Index().VerifyExpr(benchExpr(), benchState.store); err != nil {
		t.Fatalf("VerifyExpr at scale: %v", err)
	}
}
