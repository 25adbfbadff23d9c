package billing

import (
	"sort"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
)

// State is the ledger's serializable form, which the delivery pipeline
// writes from its accounts and restores them from.
type State struct {
	BillableThreshold int            `json:"billable_threshold"`
	Accounts          []AccountState `json:"accounts,omitempty"`
}

// AccountState is one campaign's accrued accounting. Impressions and Spend
// are always exactly the sums over Users — every impression is recorded
// against a user — and the Users key set is the campaign's reached set.
type AccountState struct {
	CampaignID  string             `json:"campaign_id"`
	Impressions int                `json:"impressions"`
	Spend       money.Micros       `json:"spend_micros"`
	Users       []UserAccountState `json:"users,omitempty"`
}

// UserAccountState is one user's exact contribution to a campaign's
// totals. Carrying the split per user is what lets a live reshard move a
// user between shards with accounting preserved to the micro. Impressions
// is always the number of the campaign's impressions in the user's feed.
type UserAccountState struct {
	User        profile.UserID `json:"user"`
	Impressions int            `json:"impressions"`
	Spend       money.Micros   `json:"spend_micros"`
}

// FilterUsersState returns the portion of a ledger state attributable to
// the users keep selects: per campaign, exactly their user rows with the
// aggregate totals recomputed over them. An account none of them touched
// carries no information and is omitted. Extracting a moving user set and
// removing it from the source are this one filter under complementary
// predicates, so the two always partition the input. The input state is
// not modified.
func FilterUsersState(s State, keep func(profile.UserID) bool) State {
	out := State{BillableThreshold: s.BillableThreshold}
	for _, as := range s.Accounts {
		kept := AccountState{CampaignID: as.CampaignID}
		for _, us := range as.Users {
			if keep(us.User) {
				kept.Users = append(kept.Users, us)
				kept.Impressions += us.Impressions
				kept.Spend += us.Spend
			}
		}
		if len(kept.Users) > 0 {
			out.Accounts = append(out.Accounts, kept)
		}
	}
	return out
}

// MergeUsersState folds an extracted ledger portion into s with replace
// semantics per (campaign, user): a row already present for a user being
// merged is replaced, not added to, so re-merging the same extract is
// idempotent. Campaign aggregate totals are recomputed from the merged
// rows; account and user orderings stay sorted so merged snapshots are
// deterministic. Neither input is modified.
func MergeUsersState(s, extract State) State {
	moved := make(map[profile.UserID]bool)
	for _, as := range extract.Accounts {
		for _, us := range as.Users {
			moved[us.User] = true
		}
	}
	// Drop any rows for the incoming users (replace semantics), then
	// append the extracted rows and re-sort.
	out := FilterUsersState(s, func(uid profile.UserID) bool { return !moved[uid] })
	byID := make(map[string]int, len(out.Accounts)) // position, not pointer: the append below may move the rows
	for i, as := range out.Accounts {
		byID[as.CampaignID] = i
	}
	for _, as := range extract.Accounts {
		i, ok := byID[as.CampaignID]
		if !ok {
			i = len(out.Accounts)
			out.Accounts = append(out.Accounts, AccountState{CampaignID: as.CampaignID})
			byID[as.CampaignID] = i
		}
		dst := &out.Accounts[i]
		dst.Users = append(dst.Users, as.Users...)
		dst.Impressions += as.Impressions
		dst.Spend += as.Spend
	}
	sort.Slice(out.Accounts, func(i, j int) bool { return out.Accounts[i].CampaignID < out.Accounts[j].CampaignID })
	for i := range out.Accounts {
		us := out.Accounts[i].Users
		sort.Slice(us, func(a, b int) bool { return us[a].User < us[b].User })
	}
	return out
}
