package delivery

import (
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// treadsPage is the page a user likes to opt in to the deployment below.
const treadsPage = "treads-provider"

// newTreadsDeployment builds the paper's deployment (§3.1) over a generated
// population with the targeting index on: one Tread per platform attribute
// (614), each targeting the opt-in engagement audience narrowed to holders
// of its attribute, bidding $10 against a fixed $2 market with a frequency
// cap of 1. Even-numbered users are opted in.
func newTreadsDeployment(t testing.TB, users int) (*Pipeline, []*profile.Profile) {
	t.Helper()
	store := profile.NewStore()
	eng := audience.NewEngine(store, pixel.NewRegistry())
	if err := eng.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	profs := workload.Generate(workload.Config{
		Users: users, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, Seed: 1,
	})
	for i, p := range profs {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			p.Like(treadsPage)
		}
	}
	optIn := eng.CreateEngagementAudience("provider", "opt-in", treadsPage)
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	pipe := NewPipeline(store, eng, billing.NewLedger(), market, stats.NewRNG(1))
	for i, a := range attr.DefaultCatalog().BySource(attr.SourcePlatform) {
		err := pipe.AddCampaign(&Campaign{
			ID:         fmt.Sprintf("tread-%03d", i),
			Advertiser: "provider",
			Spec: audience.Spec{
				IncludeAll: []audience.AudienceID{optIn.ID},
				Expr:       attr.Has{ID: a.ID},
			},
			BidCapCPM:    money.FromDollars(10),
			Creative:     ad.Creative{Headline: "tread", Body: string(a.ID)},
			FrequencyCap: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pipe, profs
}

// BenchmarkBrowseTreadsDeployment measures a 10-slot browse against the
// paper's deployment, rotating over an opted-in cohort: a user holds a few
// dozen of the 614 attributes, so a few dozen Treads are candidates, and
// with a cap of 1 most browses after a user's first few run at the caps.
func BenchmarkBrowseTreadsDeployment(b *testing.B) {
	pipe, profs := newTreadsDeployment(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Browse(profs[2*i%len(profs)].ID, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrowseAllUnkeyed is the case the campaign index cannot help: 614
// campaigns whose expressions require no attribute (age OR gender), so every
// one is a candidate for every user. What is left is evaluating each spec
// once per browse, not once per slot.
func BenchmarkBrowseAllUnkeyed(b *testing.B) {
	e := newEnv(b, 64)
	for i := 0; i < 614; i++ {
		lo := 18 + i%40
		c := campaign(fmt.Sprintf("c%03d", i), fmt.Sprintf("age(%d, %d) OR gender(female)", lo, lo+10), 10)
		c.FrequencyCap = 1 << 30 // never capped: every slot runs a full auction
		if err := e.pipe.AddCampaign(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.pipe.Browse(profile.UserID(fmt.Sprintf("u%02d", i%64)), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrowseNonMatching measures slot fill when no campaign matches
// (the common case for most users).
func BenchmarkBrowseNonMatching(b *testing.B) {
	e := newEnv(b, 2)
	for i := 0; i < 100; i++ {
		if err := e.pipe.AddCampaign(campaign(fmt.Sprintf("c%03d", i), "attr(platform.music.jazz)", 10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// u01 is odd: no jazz attribute.
		if _, err := e.pipe.Browse(profile.UserID("u01"), 1); err != nil {
			b.Fatal(err)
		}
	}
}
