// Package auction implements the per-impression ad auction the delivery
// pipeline runs for every ad slot.
//
// Like real platforms, it is a generalized second-price auction: the
// highest-bidding eligible campaign wins the slot and pays the
// second-highest bid. Campaigns compete both with each other and with a
// synthetic background market of other advertisers, modelled as a lognormal
// distribution of competing top bids around the market's typical CPM. The
// paper's validation raised its bid cap to $10 CPM — five times the $2
// default — "to increase the chances of these ads winning the ad auction";
// experiment E7 reproduces that bid→delivery trade-off against this model.
package auction

import (
	"math"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/stats"
)

// DefaultCPM is the market's typical bid, the "$2 CPM recommended bid for
// U.S. users" of §3.1.
var DefaultCPM = money.FromDollars(2)

// Market models the background competition for ad slots.
type Market struct {
	// BaseCPM is the median competing top bid.
	BaseCPM money.Micros
	// Sigma is the lognormal shape of competing bids; 0 means every slot
	// clears at exactly BaseCPM.
	Sigma float64
	// Floor is the reserve price: the minimum any winner pays per mille.
	Floor money.Micros
}

// DefaultMarket returns the market used throughout the experiments: median
// competing bid at the $2 default CPM with moderate dispersion, so the $2
// default bid wins about half of slots and the paper's 5× elevated bid wins
// nearly all of them.
func DefaultMarket() Market {
	return Market{
		BaseCPM: DefaultCPM,
		Sigma:   0.8,
		Floor:   money.FromDollars(0.10),
	}
}

// CompetingBid draws the top competing bid for one slot.
func (m Market) CompetingBid(rng *stats.RNG) money.Micros {
	if m.Sigma == 0 {
		return m.BaseCPM
	}
	f := m.BaseCPM.Dollars() * math.Exp(m.Sigma*rng.NormFloat64())
	b := money.FromDollars(f)
	if b < m.Floor {
		b = m.Floor
	}
	return b
}

// Bid is one campaign's entry in a slot auction.
type Bid struct {
	// CampaignID identifies the bidding campaign.
	CampaignID string
	// CapCPM is the campaign's maximum bid per thousand impressions.
	CapCPM money.Micros
	// Ord is the bidder's own number for the campaign, handed back in a
	// win's Outcome: delivery passes the campaign's ordinal, so it charges
	// the winner without looking its ID up.
	Ord uint32
}

// Outcome describes how a slot auction resolved.
type Outcome struct {
	// Won reports whether any submitted campaign (vs the background
	// market) won the slot.
	Won bool
	// CampaignID and Ord are the winning bid's, if Won.
	CampaignID string
	Ord        uint32
	// ClearingCPM is the second price the winner pays per mille, if Won.
	ClearingCPM money.Micros
	// PricePaid is the winner's cost for this single impression:
	// ClearingCPM / 1000.
	PricePaid money.Micros
}

// Run auctions one slot among the given campaign bids and the background
// market. With no bids, the market keeps the slot and Won is false.
//
// Ties between campaigns are broken by submission order (stable), matching
// the determinism requirements of the experiment harness.
func Run(bids []Bid, m Market, rng *stats.RNG) Outcome {
	competitor := m.CompetingBid(rng)
	if len(bids) == 0 {
		return Outcome{}
	}
	// Find best and second-best among campaign bids.
	best := -1
	var second money.Micros
	for i, b := range bids {
		if b.CapCPM <= 0 {
			continue
		}
		if best < 0 || b.CapCPM > bids[best].CapCPM {
			if best >= 0 && bids[best].CapCPM > second {
				second = bids[best].CapCPM
			}
			best = i
		} else if b.CapCPM > second {
			second = b.CapCPM
		}
	}
	if best < 0 || bids[best].CapCPM <= competitor {
		// Market outbids every campaign (ties go to the incumbent
		// market, so a bid must strictly exceed the competition).
		return Outcome{}
	}
	clearing := competitor
	if second > clearing {
		clearing = second
	}
	if clearing < m.Floor {
		clearing = m.Floor
	}
	return Outcome{
		Won:         true,
		CampaignID:  bids[best].CampaignID,
		Ord:         bids[best].Ord,
		ClearingCPM: clearing,
		PricePaid:   clearing.PerMille(),
	}
}

// WinProbability estimates, by simulation, the probability that a lone
// campaign bidding capCPM wins a slot against the market. It is used by the
// E7 bid-sweep bench and by the cost model's expected-cost calculations.
func WinProbability(capCPM money.Micros, m Market, rng *stats.RNG, trials int) float64 {
	if trials <= 0 {
		trials = 1000
	}
	wins := 0
	for i := 0; i < trials; i++ {
		if capCPM > m.CompetingBid(rng) {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}
