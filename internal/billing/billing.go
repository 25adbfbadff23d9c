// Package billing implements the platform's accounting and advertiser
// reporting.
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
	"sync"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
)

// ReachReportThreshold is the minimum distinct-user reach below which a
// campaign report suppresses the reach estimate (reports 0). Impressions
// and spend are still reported exactly — that is what invoices are made of —
// but per the paper's validation, tiny audiences produce "zero cost since
// too few users were reached".
const ReachReportThreshold = 20

// ReachRounding coarsens reported reach to this granularity.
const ReachRounding = 10

// Ledger records impressions and charges per campaign. It is the
// platform-side source of truth; advertiser-visible views are derived from
// it through Report. Ledger is safe for concurrent use.
type Ledger struct {
	mu        sync.RWMutex
	campaigns map[string]*campaignAccount
	// billableThreshold: campaigns whose total distinct reach stays below
	// this are not charged (the validation's "ads had zero cost since too
	// few users were reached").
	billableThreshold int
}

type campaignAccount struct {
	impressions int
	spend       money.Micros
	// users holds the exact per-user accounting. Its key set is the
	// campaign's reached set; the per-user impression and spend totals
	// exist so a shard migration can split a ledger exactly — moving a
	// user moves their precise contribution, keeping merged cluster
	// totals invariant across resharding. A row is a value, so recording an
	// impression allocates no per-(campaign, user) object.
	users map[profile.UserID]userTotals
}

type userTotals struct {
	impressions int
	spend       money.Micros
}

// NewLedger returns an empty ledger with the default billable-reach
// threshold.
func NewLedger() *Ledger {
	return &Ledger{
		campaigns:         make(map[string]*campaignAccount),
		billableThreshold: ReachReportThreshold,
	}
}

// SetBillableThreshold overrides the minimum reach below which a campaign
// is not charged. Used by the E4 ablation (threshold 0 bills and reports
// everything exactly).
func (l *Ledger) SetBillableThreshold(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.billableThreshold = n
}

func (l *Ledger) account(campaignID string) *campaignAccount {
	acct := l.campaigns[campaignID]
	if acct == nil {
		acct = &campaignAccount{users: make(map[profile.UserID]userTotals)}
		l.campaigns[campaignID] = acct
	}
	return acct
}

// RecordImpression charges a campaign for one delivered impression at the
// given per-impression price and records the reached user.
func (l *Ledger) RecordImpression(campaignID string, user profile.UserID, price money.Micros) {
	l.mu.Lock()
	defer l.mu.Unlock()
	acct := l.account(campaignID)
	acct.impressions++
	acct.spend += price
	ut := acct.users[user]
	ut.impressions++
	ut.spend += price
	acct.users[user] = ut
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

// Report produces the advertiser-visible report for a campaign. Unknown
// campaigns yield a zero report (platforms report empty rows, not errors).
func (l *Ledger) Report(campaignID string) Report {
	l.mu.RLock()
	defer l.mu.RUnlock()
	acct := l.campaigns[campaignID]
	if acct == nil {
		return Report{CampaignID: campaignID}
	}
	return MakeReport(campaignID, acct.impressions, len(acct.users), acct.spend, l.billableThreshold)
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

// TrueSpend returns the platform-internal accrued spend regardless of the
// billable threshold; the cost model uses it to price hypothetical larger
// deployments.
func (l *Ledger) TrueSpend(campaignID string) money.Micros {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if acct := l.campaigns[campaignID]; acct != nil {
		return acct.spend
	}
	return 0
}

// TrueImpressions returns the exact impression count for a campaign.
// Impressions are reported to advertisers exactly anyway; this accessor
// exists so cluster coordinators can merge shard ledgers without going
// through Report.
func (l *Ledger) TrueImpressions(campaignID string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if acct := l.campaigns[campaignID]; acct != nil {
		return acct.impressions
	}
	return 0
}

// TrueReach returns the platform-internal exact distinct reach. It is never
// exposed through advertiser-facing APIs.
func (l *Ledger) TrueReach(campaignID string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if acct := l.campaigns[campaignID]; acct != nil {
		return len(acct.users)
	}
	return 0
}
