package delivery

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/profile"
)

// The ledger is kept where the impressions are: a user's account rows are
// its record's shown rows, and a campaign's totals, their sums, sit on its
// registration. deliver advances both under p.mu, and each read below takes
// it once.

// Totals returns the campaign's exact delivery totals; an unknown
// campaign's are zero.
func (p *Pipeline) Totals(id string) billing.Totals {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.byID[id]; c != nil {
		return c.totals
	}
	return billing.Totals{}
}

// Report is the campaign's advertiser-visible report: its totals under the
// pipeline's billable threshold. An unknown campaign's is empty, not an
// error, as on a real platform.
func (p *Pipeline) Report(id string) billing.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t billing.Totals
	if c := p.byID[id]; c != nil {
		t = c.totals
	}
	return billing.MakeReport(id, t.Impressions, t.Reach, t.Spend, p.billableThreshold)
}

// SetBillableThreshold overrides the reach below which a campaign's report
// invoices nothing; the E4 ablation sets 0, reporting everything exactly.
func (p *Pipeline) SetBillableThreshold(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.billableThreshold = n
}

// LedgerSnapshot exports the ledger: each campaign with an account row, by
// campaign ID, with its totals and its rows by user ID.
func (p *Pipeline) LedgerSnapshot() billing.State {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := billing.State{BillableThreshold: p.billableThreshold}
	accts := make([]billing.AccountState, len(p.campaigns)) // by ordinal
	ids := p.store.UserIDs()
	for _, o := range p.heldByID(ids) {
		for _, r := range p.users[o].shown {
			accts[r.ord].Users = append(accts[r.ord].Users, billing.UserAccountState{User: ids[o], Impressions: int(r.n), Spend: r.spend})
		}
	}
	for _, c := range p.campaigns {
		if a := accts[c.ord]; c.totals.Reach > 0 {
			a.CampaignID, a.Impressions, a.Spend = c.ID, c.totals.Impressions, c.totals.Spend
			s.Accounts = append(s.Accounts, a)
		}
	}
	slices.SortFunc(s.Accounts, func(a, b billing.AccountState) int { return cmp.Compare(a.CampaignID, b.CampaignID) })
	return s
}

// heldByID returns the ordinals with a record, ordered by user ID; ids is
// the store's UserIDs, taken under p.mu, which the caller holds, so every
// ordinal in p.users names a user in it.
func (p *Pipeline) heldByID(ids []profile.UserID) []uint32 {
	var held []uint32
	for o := range p.users {
		if u := &p.users[o]; len(u.feed) > 0 || u.slots > 0 {
			held = append(held, uint32(o))
		}
	}
	slices.SortFunc(held, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
	return held
}

// restoreLedger charges the accounts RestoreState counted from the feeds
// what s says they cost. s must bill each pair the feeds hold, once, for
// exactly the impressions its feed holds, and give each campaign the sums
// over its rows; a state that disagrees with itself is refused, naming both
// figures, since one table cannot hold two.
func (p *Pipeline) restoreLedger(s billing.State) error {
	p.billableThreshold = s.BillableThreshold
	billed := make(map[[2]uint32]bool) // (campaign, user) ordinals
	for _, as := range s.Accounts {
		c := p.byID[as.CampaignID]
		if c == nil {
			return fmt.Errorf("delivery: the state bills campaign %q, which it does not define", as.CampaignID)
		}
		var t billing.Totals
		for _, us := range as.Users {
			o, ok := p.store.Ord(us.User)
			if !ok {
				return fmt.Errorf("delivery: the billing row of campaign %q for user %q, who is not one of the state's users", as.CampaignID, us.User)
			}
			if billed[[2]uint32{c.ord, o}] {
				return fmt.Errorf("delivery: the state bills user %q for campaign %q twice", us.User, as.CampaignID)
			}
			billed[[2]uint32{c.ord, o}] = true
			row := p.user(o).row(c.ord)
			if row == nil || int(row.n) != us.Impressions {
				return fmt.Errorf("delivery: the state bills user %q for %d impressions of campaign %q, and their feed holds %d", us.User, us.Impressions, as.CampaignID, p.user(o).seen(c.ord))
			}
			row.spend = us.Spend
			t.Impressions += us.Impressions
			t.Spend += us.Spend
		}
		if t.Impressions != as.Impressions || t.Spend != as.Spend {
			return fmt.Errorf("delivery: the state bills campaign %q for %d impressions and %v, and its rows for %d and %v", as.CampaignID, as.Impressions, as.Spend, t.Impressions, t.Spend)
		}
		c.totals.Spend += t.Spend
	}
	ids := p.store.UserIDs()
	for o := range p.users {
		for _, r := range p.users[o].shown {
			if !billed[[2]uint32{r.ord, uint32(o)}] {
				return fmt.Errorf("delivery: user %q's feed holds %d impressions of campaign %q, and the state bills them for none", ids[o], r.n, p.campaigns[r.ord].ID)
			}
		}
	}
	return nil
}
