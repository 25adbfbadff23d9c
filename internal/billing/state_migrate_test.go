package billing

import (
	"reflect"
	"testing"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
)

// migState is a ledger snapshot: alice saw c1 twice at 100, bob c1 at 150
// and c2 at 200, carol c2 at 300.
func migState() State {
	return State{BillableThreshold: ReachReportThreshold, Accounts: []AccountState{
		{CampaignID: "c1", Impressions: 3, Spend: 350, Users: []UserAccountState{{User: "alice", Impressions: 2, Spend: 200}, {User: "bob", Impressions: 1, Spend: 150}}},
		{CampaignID: "c2", Impressions: 2, Spend: 500, Users: []UserAccountState{{User: "bob", Impressions: 1, Spend: 200}, {User: "carol", Impressions: 1, Spend: 300}}},
	}}
}

// account returns s's account of the campaign, zero when there is none.
func account(s State, campaign string) AccountState {
	for _, as := range s.Accounts {
		if as.CampaignID == campaign {
			return as
		}
	}
	return AccountState{}
}

// TestExtractRemoveMergeRoundTrip pins the accounting invariant live
// resharding depends on: extracting a user set and merging it elsewhere
// moves exactly that set's contribution, so extract+remove partitions the
// ledger and merge(remove, extract) reproduces the original byte-for-byte.
func TestExtractRemoveMergeRoundTrip(t *testing.T) {
	s := migState()
	moving := func(u profile.UserID) bool { return u == "bob" }

	ex := FilterUsersState(s, moving)
	if len(ex.Accounts) != 2 {
		t.Fatalf("extract accounts = %d, want 2 (bob touched c1 and c2)", len(ex.Accounts))
	}
	if ex.Accounts[0].CampaignID != "c1" || ex.Accounts[0].Impressions != 1 || ex.Accounts[0].Spend != 150 {
		t.Fatalf("extract c1 = %+v", ex.Accounts[0])
	}

	rem := FilterUsersState(s, func(u profile.UserID) bool { return !moving(u) })
	// Partition: every campaign total is split exactly.
	for _, as := range s.Accounts {
		var exImp, remImp int
		for _, e := range ex.Accounts {
			if e.CampaignID == as.CampaignID {
				exImp = e.Impressions
			}
		}
		for _, r := range rem.Accounts {
			if r.CampaignID == as.CampaignID {
				remImp = r.Impressions
			}
		}
		if exImp+remImp != as.Impressions {
			t.Fatalf("campaign %s impressions split %d+%d != %d", as.CampaignID, exImp, remImp, as.Impressions)
		}
	}

	back := MergeUsersState(rem, ex)
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("merge(remove, extract) != original:\n got %+v\nwant %+v", back, s)
	}
}

// TestMergeReplaceSemantics pins idempotence: merging the same extract
// twice replaces the user's rows instead of double-counting them.
func TestMergeReplaceSemantics(t *testing.T) {
	s := migState()
	ex := FilterUsersState(s, func(u profile.UserID) bool { return u == "alice" })

	once := MergeUsersState(s, ex)
	twice := MergeUsersState(once, ex)
	if !reflect.DeepEqual(once, s) {
		t.Fatalf("merging a user already present changed the state:\n got %+v\nwant %+v", once, s)
	}
	if !reflect.DeepEqual(twice, once) {
		t.Fatalf("second merge not idempotent")
	}
}

// TestMergeNewCampaign covers an extract carrying a campaign the
// destination has never seen.
func TestMergeNewCampaign(t *testing.T) {
	dst := State{BillableThreshold: ReachReportThreshold, Accounts: []AccountState{
		{CampaignID: "c9", Impressions: 1, Spend: 500, Users: []UserAccountState{{User: "dave", Impressions: 1, Spend: 500}}},
	}}
	ex := FilterUsersState(migState(), func(u profile.UserID) bool { return u == "carol" })

	merged := MergeUsersState(dst, ex)
	if len(merged.Accounts) != 2 {
		t.Fatalf("merged accounts = %d, want 2", len(merged.Accounts))
	}
	if merged.Accounts[0].CampaignID != "c2" || merged.Accounts[0].Spend != 300 {
		t.Fatalf("merged new campaign = %+v", merged.Accounts[0])
	}
	if r2, r9 := len(account(merged, "c2").Users), len(account(merged, "c9").Users); r2 != 1 || r9 != 1 {
		t.Fatalf("merged reach c2=%d c9=%d", r2, r9)
	}
}

// TestFilterPartitionsEveryWay pins the one filter's algebra for every
// subset of the users: filter(keep) and filter(!keep) share no row, each
// side's totals are recomputed over exactly its rows, and merging the two
// sides gives back the input.
func TestFilterPartitionsEveryWay(t *testing.T) {
	s := migState()
	users := []profile.UserID{"alice", "bob", "carol"}
	for mask := 0; mask < 1<<len(users); mask++ {
		keep := func(u profile.UserID) bool {
			for i, name := range users {
				if u == name {
					return mask&(1<<i) != 0
				}
			}
			return false
		}
		in := FilterUsersState(s, keep)
		out := FilterUsersState(s, func(u profile.UserID) bool { return !keep(u) })
		for _, side := range []struct {
			st   State
			kept bool
		}{{in, true}, {out, false}} {
			for _, as := range side.st.Accounts {
				var imps int
				var spend money.Micros
				for _, us := range as.Users {
					if keep(us.User) != side.kept {
						t.Fatalf("mask %b: user %s on the wrong side", mask, us.User)
					}
					imps += us.Impressions
					spend += us.Spend
				}
				if len(as.Users) == 0 || as.Impressions != imps || as.Spend != spend {
					t.Fatalf("mask %b: account %+v totals are not the sums over its rows", mask, as)
				}
			}
		}
		if back := MergeUsersState(out, in); !reflect.DeepEqual(back, s) {
			t.Fatalf("mask %b: filter(keep) ∪ filter(!keep) != input:\n got %+v\nwant %+v", mask, back, s)
		}
	}
}

// TestMergeIntoFullBackingArray covers an extract that both adds a campaign
// the destination lacks and updates one it holds, when the destination's
// account rows exactly fill their backing array: the update must land in
// the merged state, not in the array the append left behind.
func TestMergeIntoFullBackingArray(t *testing.T) {
	dst := State{BillableThreshold: ReachReportThreshold, Accounts: []AccountState{
		{CampaignID: "c2", Impressions: 1, Spend: 10, Users: []UserAccountState{{User: "dave", Impressions: 1, Spend: 10}}},
		{CampaignID: "c3", Impressions: 1, Spend: 10, Users: []UserAccountState{{User: "dave", Impressions: 1, Spend: 10}}},
	}}
	ex := FilterUsersState(migState(), func(u profile.UserID) bool { return u == "bob" }) // c1 (new), c2 (held)
	merged := MergeUsersState(dst, ex)
	if c1, c2 := account(merged, "c1"), account(merged, "c2"); c1.Impressions != 1 || c2.Impressions != 2 || c2.Spend != 210 || len(c2.Users) != 2 {
		t.Fatalf("merged state lost rows: %+v", merged)
	}
}
