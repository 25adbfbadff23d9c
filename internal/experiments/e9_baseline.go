package experiments

import (
	"fmt"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/baseline"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// E9Row is one point of the correlation-baseline sweep (§5 Related work):
// how large a panel XRay/Sunlight-style inference needs before it can
// recover a campaign's targeting with statistical confidence, versus the
// single user Treads needs.
type E9Row struct {
	PanelSize int
	Recall    float64 // fraction of true targeting attributes recovered
	Precision float64
	// TreadsUsers is the number of users Treads needs for the same
	// knowledge: always 1 (the targeted user themselves).
	TreadsUsers int
	// TreadsRecall is measured by actually running the Tread: 1.0.
	TreadsRecall float64
}

// E9CorrelationBaseline runs a hidden advertiser campaign targeting one
// attribute over panels of increasing size and lets the correlator try to
// recover the targeting; it then runs the Treads mechanism with a single
// opted-in user for comparison.
func E9CorrelationBaseline(seed uint64, panelSizes []int, trials int) ([]E9Row, error) {
	if trials <= 0 {
		trials = 5
	}
	catalog := attr.DefaultCatalog()
	target := catalog.Search("Jazz")[0].ID
	decoys := []attr.ID{
		catalog.Search("Running")[0].ID,
		catalog.Search("Cooking")[0].ID,
		catalog.Search("Photography")[0].ID,
	}
	candidates := append([]attr.ID{target}, decoys...)
	rng := newRNG(seed)

	var rows []E9Row
	for _, n := range panelSizes {
		var recallSum, precSum float64
		for tr := 0; tr < trials; tr++ {
			market := marketFixed()
			p := platform.New(platform.Config{Catalog: catalog, Market: &market, Seed: rng.Uint64()})
			// Panel members share their profiles with the researchers
			// (the deployment cost the paper highlights).
			cfg := workload.DefaultConfig()
			cfg.Users = n
			cfg.Seed = rng.Uint64()
			cfg.Catalog = catalog
			pop := workload.Generate(cfg)
			for _, u := range pop {
				if err := p.AddUser(u); err != nil {
					return nil, err
				}
			}
			if err := p.RegisterAdvertiser("hidden-adv"); err != nil {
				return nil, err
			}
			campaignID, err := p.CreateCampaign("hidden-adv", platform.CampaignParams{
				Spec:         audience.Spec{Expr: attr.Has{ID: target}},
				BidCapCPM:    money.FromDollars(10),
				Creative:     ad.Creative{Headline: "mystery", Body: "who am I for?"},
				FrequencyCap: 1,
			})
			if err != nil {
				return nil, err
			}
			panel := make([]baseline.PanelMember, 0, n)
			for _, u := range pop {
				if _, err := p.BrowseFeed(u.ID, 3); err != nil {
					return nil, err
				}
				m := baseline.PanelMember{Attrs: map[attr.ID]bool{}, Saw: map[string]bool{}}
				for _, id := range u.Attrs() {
					m.Attrs[id] = true
				}
				for _, imp := range p.Feed(u.ID) {
					m.Saw[imp.CampaignID] = true
				}
				panel = append(panel, m)
			}
			corr := baseline.NewCorrelator()
			inf := corr.Infer(panel, campaignID, candidates)
			ev := baseline.Evaluate(n, inf, map[attr.ID]bool{target: true})
			recallSum += ev.Recall()
			precSum += ev.Precision()
		}
		rows = append(rows, E9Row{
			PanelSize:   n,
			Recall:      recallSum / float64(trials),
			Precision:   precSum / float64(trials),
			TreadsUsers: 1,
		})
	}

	// The Treads comparison: one user, one deployment, full recall.
	market := marketFixed()
	p := platform.New(platform.Config{Catalog: catalog, Market: &market, Seed: seed})
	u := profile.New("solo")
	u.SetCountry("US")
	u.AgeYrs = 30
	u.SetAttr(target)
	if err := p.AddUser(u); err != nil {
		return nil, err
	}
	tp, err := core.NewProvider(p, core.ProviderConfig{Name: "solo-tp", Mode: core.RevealObfuscated, CodebookSeed: seed})
	if err != nil {
		return nil, err
	}
	p.LikePage("solo", tp.OptInPage())
	if _, err := tp.DeployAttrTreads(candidates); err != nil {
		return nil, err
	}
	if _, err := p.BrowseFeed("solo", 20); err != nil {
		return nil, err
	}
	ext := &core.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(p.Feed("solo"), catalog)
	treadsRecall := 0.0
	if rev.HasAttr(target) {
		treadsRecall = 1.0
	}
	for i := range rows {
		rows[i].TreadsRecall = treadsRecall
	}
	return rows, nil
}

// marketFixed is the deterministic $2 market used when auction noise is
// not the object of study.
func marketFixed() auction.Market {
	return auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.10)}
}

// E9Table renders the baseline comparison.
func E9Table(rows []E9Row) *Table {
	t := &Table{
		Title:   "E9 (§5): XRay/Sunlight-style correlation vs Treads",
		Columns: []string{"panel size", "recall", "precision", "treads users", "treads recall"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.PanelSize),
			cellPct(r.Recall),
			cellPct(r.Precision),
			fmt.Sprintf("%d", r.TreadsUsers),
			cellPct(r.TreadsRecall),
		})
	}
	t.Notes = append(t.Notes,
		"paper: correlation approaches need a large diverse panel (who must share their profiles) for statistically significant claims; a Tread reveals its targeting to a single user by construction")
	return t
}
