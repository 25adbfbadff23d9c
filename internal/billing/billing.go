// Package billing implements the platform's advertiser reporting and the
// serialized form of its accounts, which the delivery pipeline keeps beside
// the impressions they charge for.
//
// Reporting matters beyond bookkeeping: the performance statistics the
// platform hands back to advertisers ("for billing purposes; this could
// include estimates about the number of users reached by different ads",
// §3.1 threat model) are the only channel through which a transparency
// provider could learn anything about its opted-in users. The Report type
// therefore applies the same aggregation and thresholding real platforms
// use, and the privacy analyzer in the core package attacks exactly this
// surface.
package billing

import (
	"fmt"

	"github.com/treads-project/treads/internal/money"
)

// ReachReportThreshold is the minimum distinct-user reach below which a
// campaign report suppresses the reach estimate (reports 0). Impressions
// and spend are still reported exactly — that is what invoices are made of —
// but per the paper's validation, tiny audiences produce "zero cost since
// too few users were reached".
const ReachReportThreshold = 20

// ReachRounding coarsens reported reach to this granularity.
const ReachRounding = 10

// Totals are one campaign's exact delivery totals, before any threshold:
// what a report is made of (delivery.Pipeline.Totals).
type Totals struct {
	Impressions int
	Reach       int // distinct users
	Spend       money.Micros
}

// Report is the advertiser-visible performance view of one campaign.
type Report struct {
	CampaignID  string
	Impressions int
	// Reach is the thresholded, rounded distinct-user estimate. Zero
	// means "fewer than ReachReportThreshold people" — not necessarily
	// zero people.
	Reach int
	// Spend is the amount actually invoiced. Campaigns whose true reach
	// never crossed the billable threshold are invoiced $0.
	Spend money.Micros
}

func (r Report) String() string {
	return fmt.Sprintf("campaign %s: %d impressions, reach %d, spend %v",
		r.CampaignID, r.Impressions, r.Reach, r.Spend)
}

// MakeReport derives the advertiser-visible report from exact delivery
// totals: impressions, distinct-user reach, and accrued spend. It is the
// single place the billable threshold and reach rounding are applied, so a
// cluster coordinator that sums exact per-shard totals and calls MakeReport
// once reports exactly what one big ledger would — thresholding per shard
// and then summing would both over-suppress and leak shard boundaries.
// billableThreshold == 0 selects the exact-reporting ablation mode.
func MakeReport(campaignID string, impressions, trueReach int, spend money.Micros, billableThreshold int) Report {
	r := Report{CampaignID: campaignID, Impressions: impressions}
	if trueReach >= billableThreshold {
		r.Spend = spend
	}
	if trueReach >= ReachReportThreshold && billableThreshold > 0 {
		r.Reach = trueReach - trueReach%ReachRounding
	} else if billableThreshold == 0 {
		// Ablation mode: exact reporting, the unsafe configuration E4
		// demonstrates membership inference against.
		r.Reach = trueReach
		r.Spend = spend
	}
	return r
}
