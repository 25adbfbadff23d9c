package billing

import (
	"fmt"
	"sort"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
)

// State is the ledger's serializable form.
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
// user between shards with accounting preserved to the micro.
type UserAccountState struct {
	User        profile.UserID `json:"user"`
	Impressions int            `json:"impressions"`
	Spend       money.Micros   `json:"spend_micros"`
}

// Snapshot exports the ledger, naming each user by its ID in users, the
// store whose ordinals the ledger holds.
func (l *Ledger) Snapshot(users *profile.Store) State {
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Taken under l.mu: every ordinal recorded so far names a user in it.
	uids := users.UserIDs()
	s := State{BillableThreshold: l.billableThreshold}
	ids := make([]string, 0, len(l.campaigns))
	for id := range l.campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		acct := l.campaigns[id]
		as := AccountState{CampaignID: id, Impressions: acct.impressions, Spend: acct.spend}
		for o, ut := range acct.users {
			as.Users = append(as.Users, UserAccountState{User: uids[o], Impressions: ut.impressions, Spend: ut.spend})
		}
		sort.Slice(as.Users, func(i, j int) bool { return as.Users[i].User < as.Users[j].User })
		s.Accounts = append(s.Accounts, as)
	}
	return s
}

// RestoreState rebuilds a ledger over users, the store restored from the
// same state. A row of a user users does not hold is refused: an
// impression is only ever billed to a user of the node.
func RestoreState(s State, users *profile.Store) (*Ledger, error) {
	l := NewLedger()
	l.billableThreshold = s.BillableThreshold
	for _, as := range s.Accounts {
		acct := l.account(as.CampaignID)
		acct.impressions = as.Impressions
		acct.spend = as.Spend
		if len(as.Users) > 0 {
			acct.users = make(map[uint32]userTotals, len(as.Users))
		}
		for _, us := range as.Users {
			o, ok := users.Ord(us.User)
			if !ok {
				return nil, fmt.Errorf("billing: campaign %q has a row for user %q, who is not one of the state's users", as.CampaignID, us.User)
			}
			acct.users[o] = userTotals{impressions: us.Impressions, spend: us.Spend}
		}
	}
	return l, nil
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
