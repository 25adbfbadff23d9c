package experiments

import (
	"context"
	"fmt"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// E7Row is one point of the bid→delivery sweep reproducing the
// validation's rationale for bidding $10 CPM — "five times its default
// value of $2 CPM — to increase the chances of these ads winning the ad
// auction and getting delivered".
type E7Row struct {
	BidCPMUSD float64
	// WinProb is the analytical single-slot win probability against the
	// stochastic default market.
	WinProb float64
	// DeliveryRate is the measured fraction of targeted users who
	// actually received the ad within a fixed browsing budget.
	DeliveryRate float64
	// AvgPricePaidUSD is the measured mean second price per impression.
	AvgPricePaidUSD float64
}

// E7BidSweep sweeps the bid cap against the lognormal default market, with
// `users` targeted users browsing `slots` feed slots each.
func E7BidSweep(seed uint64, bidsUSD []float64, users, slots int) ([]E7Row, error) {
	var rows []E7Row
	for _, bid := range bidsUSD {
		market := auction.DefaultMarket()
		p := platform.New(platform.Config{Market: &market, Seed: seed})
		jazz := p.Catalog().Search("Jazz")[0].ID
		for i := 0; i < users; i++ {
			u := profile.New(profile.UserID(fmt.Sprintf("u%05d", i)))
			u.SetCountry("US")
			u.AgeYrs = 30
			u.SetAttr(jazz)
			if err := p.AddUser(u); err != nil {
				return nil, err
			}
		}
		if err := p.RegisterAdvertiser("bid-tp"); err != nil {
			return nil, err
		}
		id, err := p.CreateCampaign("bid-tp", platform.CampaignParams{
			Spec:         audience.Spec{Expr: attr.Has{ID: jazz}},
			BidCapCPM:    money.FromDollars(bid),
			Creative:     ad.Creative{Headline: "t", Body: "b"},
			FrequencyCap: 1,
		})
		if err != nil {
			return nil, err
		}
		delivered := 0
		for i := 0; i < users; i++ {
			imps, err := p.BrowseFeed(profile.UserID(fmt.Sprintf("u%05d", i)), slots)
			if err != nil {
				return nil, err
			}
			if len(imps) > 0 {
				delivered++
			}
		}
		totals, err := p.CampaignTotals(context.Background(), "bid-tp", id)
		if err != nil {
			return nil, err
		}
		spend, imps := totals.Spend, totals.Impressions
		avg := 0.0
		if imps > 0 {
			avg = spend.Dollars() / float64(imps)
		}
		rows = append(rows, E7Row{
			BidCPMUSD: bid,
			WinProb: auction.WinProbability(money.FromDollars(bid), market,
				newRNG(seed^0xb1d), 20000),
			DeliveryRate:    float64(delivered) / float64(users),
			AvgPricePaidUSD: avg,
		})
	}
	return rows, nil
}

// E7Table renders the bid sweep.
func E7Table(rows []E7Row) *Table {
	t := &Table{
		Title:   "E7 (§3.1 Validation bid): bid cap vs auction wins and delivery",
		Columns: []string{"bid CPM", "slot win prob", "users reached (5 slots)", "avg $/impression"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("$%.1f", r.BidCPMUSD),
			cellPct(r.WinProb),
			cellPct(r.DeliveryRate),
			fmt.Sprintf("$%.4f", r.AvgPricePaidUSD),
		})
	}
	t.Notes = append(t.Notes,
		"paper: the $10 bid (5x the $2 default) was chosen to increase auction win chances; second price keeps cost near the market CPM")
	return t
}
