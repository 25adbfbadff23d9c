package billing

import (
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
)

// migUsers is the store whose ordinals the test ledgers hold: alice 0,
// bob 1, carol 2, dave 3.
var migUsers = func() *profile.Store {
	s := profile.NewStore()
	for _, id := range []profile.UserID{"alice", "bob", "carol", "dave"} {
		if err := s.Add(profile.New(id)); err != nil {
			panic(err)
		}
	}
	return s
}()

func migLedger() *Ledger {
	l := NewLedger()
	l.RecordImpression("c1", 0, 100)
	l.RecordImpression("c1", 0, 100)
	l.RecordImpression("c1", 1, 150)
	l.RecordImpression("c2", 1, 200)
	l.RecordImpression("c2", 2, 300)
	return l
}

// restore is RestoreState over migUsers, failing the test on an error.
func restore(t *testing.T, s State) *Ledger {
	t.Helper()
	l, err := RestoreState(s, migUsers)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestExtractRemoveMergeRoundTrip pins the accounting invariant live
// resharding depends on: extracting a user set and merging it elsewhere
// moves exactly that set's contribution, so extract+remove partitions the
// ledger and merge(remove, extract) reproduces the original byte-for-byte.
func TestExtractRemoveMergeRoundTrip(t *testing.T) {
	s := migLedger().Snapshot(migUsers)
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

	// Restoring the merged state yields identical reports.
	l2 := restore(t, back)
	for _, id := range []string{"c1", "c2"} {
		if got, want := l2.TrueReach(id), migLedger().TrueReach(id); got != want {
			t.Fatalf("TrueReach(%s) after round trip = %d, want %d", id, got, want)
		}
	}
}

// TestMergeReplaceSemantics pins idempotence: merging the same extract
// twice replaces the user's rows instead of double-counting them.
func TestMergeReplaceSemantics(t *testing.T) {
	s := migLedger().Snapshot(migUsers)
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
	dst := NewLedger()
	dst.RecordImpression("c9", 3, 500)
	ex := FilterUsersState(migLedger().Snapshot(migUsers), func(u profile.UserID) bool { return u == "carol" })

	merged := MergeUsersState(dst.Snapshot(migUsers), ex)
	if len(merged.Accounts) != 2 {
		t.Fatalf("merged accounts = %d, want 2", len(merged.Accounts))
	}
	if merged.Accounts[0].CampaignID != "c2" || merged.Accounts[0].Spend != 300 {
		t.Fatalf("merged new campaign = %+v", merged.Accounts[0])
	}
	l := restore(t, merged)
	if l.TrueReach("c2") != 1 || l.TrueReach("c9") != 1 {
		t.Fatalf("restored reach c2=%d c9=%d", l.TrueReach("c2"), l.TrueReach("c9"))
	}
}

// TestFilterPartitionsEveryWay pins the one filter's algebra for every
// subset of the users: filter(keep) and filter(!keep) share no row, each
// side's totals are recomputed over exactly its rows, and merging the two
// sides gives back the input.
func TestFilterPartitionsEveryWay(t *testing.T) {
	s := migLedger().Snapshot(migUsers)
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
	ex := FilterUsersState(migLedger().Snapshot(migUsers), func(u profile.UserID) bool { return u == "bob" }) // c1 (new), c2 (held)
	merged := MergeUsersState(dst, ex)
	l := restore(t, merged)
	if l.TrueImpressions("c1") != 1 || l.TrueImpressions("c2") != 2 || l.TrueSpend("c2") != 210 || l.TrueReach("c2") != 2 {
		t.Fatalf("merged state lost rows: %+v", merged)
	}
}

// TestStateNamesRowsByUserID: a snapshot names each row's user by its ID in
// the store, sorted, and a row of a user the store does not hold is refused
// on restore, naming the campaign and the user.
func TestStateNamesRowsByUserID(t *testing.T) {
	s := migLedger().Snapshot(migUsers)
	want := []UserAccountState{{User: "bob", Impressions: 1, Spend: 200}, {User: "carol", Impressions: 1, Spend: 300}}
	if len(s.Accounts) != 2 || !reflect.DeepEqual(s.Accounts[1].Users, want) {
		t.Fatalf("Snapshot = %+v, want c2's rows %+v", s, want)
	}
	s.Accounts[1].Users = append(s.Accounts[1].Users, UserAccountState{User: "erin", Impressions: 1, Spend: 1})
	if _, err := RestoreState(s, migUsers); err == nil || !strings.Contains(err.Error(), `"c2"`) || !strings.Contains(err.Error(), `"erin"`) {
		t.Fatalf("restoring a row of a user the store does not hold: %v, want an error naming the campaign and the user", err)
	}
}
