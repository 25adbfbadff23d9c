package sim

import (
	"fmt"
	"math"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

func TestPoissonMean(t *testing.T) {
	rng := stats.NewRNG(1)
	const mean = 3.0
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(mean, rng)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("poisson mean = %v, want ~%v", got, mean)
	}
	if poisson(0, rng) != 0 || poisson(-1, rng) != 0 {
		t.Fatal("non-positive mean should yield 0")
	}
}

func TestBrowsingModelDraws(t *testing.T) {
	m := DefaultBrowsing()
	rng := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		if s := m.slots(rng); s < 1 {
			t.Fatalf("slots = %d", s)
		}
		if s := m.sessions(rng); s < 0 {
			t.Fatalf("sessions = %d", s)
		}
	}
}

// deploymentFixture builds a 20-user deployment with a stochastic market
// (so Treads lose some auctions and convergence takes multiple days).
func deploymentFixture(t testing.TB) *Deployment {
	t.Helper()
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0.8, Floor: money.FromDollars(0.10)}
	p := platform.New(platform.Config{Market: &market, Seed: 5})
	catalog := p.Catalog()
	attrs := []attr.ID{
		catalog.Search("Jazz")[0].ID,
		catalog.Search("Running")[0].ID,
		catalog.Search("Cooking")[0].ID,
	}
	var users []profile.UserID
	for i := 0; i < 20; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
		u.SetCountry("US")
		u.AgeYrs = 30
		for j, id := range attrs {
			if i%(j+2) == 0 {
				u.SetAttr(id)
			}
		}
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
		users = append(users, u.ID)
	}
	tp, err := core.NewProvider(p, core.ProviderConfig{
		Name: "sim-tp", Mode: core.RevealObfuscated, CodebookSeed: 5,
		BidCapCPM: money.FromDollars(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range users {
		p.LikePage(uid, tp.OptInPage())
	}
	if _, err := tp.DeployAttrTreads(attrs); err != nil {
		t.Fatal(err)
	}
	return &Deployment{Platform: p, Provider: tp, Users: users, Attrs: attrs, Seed: 5}
}

func TestRunConvergesToFullTransparency(t *testing.T) {
	d := deploymentFixture(t)
	points, err := d.Run(14)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 14 {
		t.Fatalf("points = %d", len(points))
	}
	// Coverage is monotone non-decreasing (knowledge never regresses).
	for i := 1; i < len(points); i++ {
		if points[i].MeanCoverage < points[i-1].MeanCoverage-1e-9 {
			t.Fatalf("coverage regressed on day %d: %v -> %v",
				points[i].Day, points[i-1].MeanCoverage, points[i].MeanCoverage)
		}
		if points[i].Impressions < points[i-1].Impressions {
			t.Fatalf("impressions regressed on day %d", points[i].Day)
		}
	}
	last := points[len(points)-1]
	if last.MeanCoverage < 0.99 {
		t.Fatalf("after 14 days coverage = %v, want ~1", last.MeanCoverage)
	}
	if last.FullyRevealed < 0.99 {
		t.Fatalf("after 14 days fully revealed = %v, want ~1", last.FullyRevealed)
	}
	// Day one should NOT already be fully revealed under a stochastic
	// market (the ramp is the object of study).
	if points[0].FullyRevealed > 0.95 {
		t.Fatalf("day-1 full reveal = %v; market too easy for the latency study", points[0].FullyRevealed)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := deploymentFixture(t).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := deploymentFixture(t).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("day %d differs: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

func TestRunUnknownUser(t *testing.T) {
	d := deploymentFixture(t)
	d.Users = append(d.Users, "ghost")
	if _, err := d.Run(1); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func BenchmarkDeploymentDay(b *testing.B) {
	d := deploymentFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}
