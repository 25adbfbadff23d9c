package platform

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// mapLedger is the billing ledger as it was before a node kept one account
// per user: per campaign, the totals beside a map of each reached user's
// impressions and spend, advanced by every charge. The model test holds
// the platform's ledger to it.
type mapLedger map[string]*mapAccount

type mapAccount struct {
	impressions int
	spend       money.Micros
	users       map[profile.UserID]mapUserTotals
}

type mapUserTotals struct {
	impressions int
	spend       money.Micros
}

func (l mapLedger) account(campaignID string) *mapAccount {
	acct := l[campaignID]
	if acct == nil {
		acct = &mapAccount{users: make(map[profile.UserID]mapUserTotals)}
		l[campaignID] = acct
	}
	return acct
}

func (l mapLedger) recordImpression(campaignID string, user profile.UserID, price money.Micros) {
	acct := l.account(campaignID)
	acct.impressions++
	acct.spend += price
	ut := acct.users[user]
	ut.impressions++
	ut.spend += price
	acct.users[user] = ut
}

func (l mapLedger) totals(campaignID string) CampaignTotals {
	if acct := l[campaignID]; acct != nil {
		return CampaignTotals{Impressions: acct.impressions, Reach: len(acct.users), Spend: acct.spend}
	}
	return CampaignTotals{}
}

func (l mapLedger) report(campaignID string) billing.Report {
	t := l.totals(campaignID)
	return billing.MakeReport(campaignID, t.Impressions, t.Reach, t.Spend, billing.ReachReportThreshold)
}

// move hands the users' rows to dst, as a reshard moves them.
func (l mapLedger) move(dst mapLedger, users func(profile.UserID) bool) {
	for id, acct := range l {
		for uid, ut := range acct.users {
			if !users(uid) {
				continue
			}
			delete(acct.users, uid)
			acct.impressions -= ut.impressions
			acct.spend -= ut.spend
			to := dst.account(id)
			to.users[uid] = ut
			to.impressions += ut.impressions
			to.spend += ut.spend
		}
		if len(acct.users) == 0 {
			delete(l, id)
		}
	}
}

// snapshot is the ledger's billing.State: accounts by campaign ID, rows by
// user ID.
func (l mapLedger) snapshot() billing.State {
	s := billing.State{BillableThreshold: billing.ReachReportThreshold}
	for id, acct := range l {
		as := billing.AccountState{CampaignID: id, Impressions: acct.impressions, Spend: acct.spend}
		for uid, ut := range acct.users {
			as.Users = append(as.Users, billing.UserAccountState{User: uid, Impressions: ut.impressions, Spend: ut.spend})
		}
		sort.Slice(as.Users, func(i, j int) bool { return as.Users[i].User < as.Users[j].User })
		s.Accounts = append(s.Accounts, as)
	}
	sort.Slice(s.Accounts, func(i, j int) bool { return s.Accounts[i].CampaignID < s.Accounts[j].CampaignID })
	return s
}

// TestLedgerMatchesMapModel drives two shards through seeded sequences of
// browses, pauses, moves of a few users from one to the other (export,
// import, remove) and restores of a shard from its snapshot document.
// After every step, on each shard, every campaign's totals are the sums
// over its users' account rows, and every Report, every CampaignTotals and
// the whole ledger state equal what the map ledger gives, charged with each
// impression a browse returns. Campaign bids sit under the market's floor,
// which every auction clears at, so every impression costs the floor's
// price and the model knows each charge.
func TestLedgerMatchesMapModel(t *testing.T) {
	const users, campaigns, steps = 24, 6, 300
	market := auction.Market{BaseCPM: money.FromDollars(1), Sigma: 0, Floor: money.FromDollars(5)}
	price := market.Floor.PerMille()
	salsa := attr.DefaultCatalog().Search("Salsa dance")[0].ID
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := stats.NewRNG(seed)
			pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
			var shards [2]*Platform
			models := [2]mapLedger{{}, {}}
			owner := make(map[profile.UserID]int)
			var uids []profile.UserID
			var ids []string
			for s := range shards {
				shards[s] = New(Config{Market: &market, Seed: seed + uint64(s)})
				if err := shards[s].RegisterAdvertiser("adv"); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < users; i++ {
				pr := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
				if i%3 != 0 {
					pr.SetAttr(salsa)
				}
				owner[pr.ID] = i % 2
				uids = append(uids, pr.ID)
				if err := shards[i%2].AddUser(pr); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < campaigns; c++ {
				params := CampaignParams{
					BidCapCPM:    money.FromDollars(float64(2 + c%3)),
					Creative:     ad.Creative{Headline: fmt.Sprintf("c%d", c)},
					FrequencyCap: 1 + 4*(c%3),
				}
				switch c % 4 {
				case 1:
					params.Spec = audience.Spec{Expr: attr.Has{ID: salsa}}
				case 2:
					params.Spec = audience.Spec{Expr: attr.Not{Op: attr.Has{ID: salsa}}}
				case 3:
					params.Budget = price.MulInt(7)
				}
				for _, p := range shards {
					id, err := p.CreateCampaign("adv", params)
					if err != nil {
						t.Fatal(err)
					}
					if len(ids) == c {
						ids = append(ids, id)
					}
				}
			}
			restore := func(p *Platform) *Platform {
				var doc bytes.Buffer
				if err := WriteSnapshot(&doc, p.State()); err != nil {
					t.Fatal(err)
				}
				s, err := ReadSnapshot(&doc)
				if err != nil {
					t.Fatal(err)
				}
				q, err := Restore(s)
				if err != nil {
					t.Fatal(err)
				}
				return q
			}
			moves, restores, delivered := 0, 0, 0
			for step := 0; step < steps; step++ {
				switch k := pick(20); {
				case k == 0:
					for _, p := range shards {
						if err := p.PauseCampaign("adv", ids[pick(campaigns/2)]); err != nil { // the rest keep delivering
							t.Fatal(err)
						}
					}
				case k <= 2:
					from := pick(2)
					var set []profile.UserID
					for _, uid := range uids {
						if owner[uid] == from && pick(4) == 0 {
							set = append(set, uid)
						}
					}
					moving := UserSet(set)
					chunk := ExtractUsersChunk(shards[from].State(), moving)
					merged, err := MergeChunkState(shards[1-from].State(), chunk)
					if err != nil {
						t.Fatal(err)
					}
					if shards[1-from], err = Restore(merged); err != nil {
						t.Fatal(err)
					}
					if shards[from], err = Restore(RemoveUsersState(shards[from].State(), moving)); err != nil {
						t.Fatal(err)
					}
					models[from].move(models[1-from], moving)
					for _, uid := range set {
						owner[uid] = 1 - from
					}
					moves++
				case k == 3:
					s := pick(2)
					shards[s] = restore(shards[s])
					restores++
				default:
					uid := uids[pick(users)]
					s := owner[uid]
					imps, err := shards[s].BrowseFeed(uid, pick(4))
					if err != nil {
						t.Fatal(err)
					}
					for _, imp := range imps {
						models[s].recordImpression(imp.CampaignID, uid, price)
					}
					delivered += len(imps)
				}
				for s, p := range shards {
					st := p.State()
					for _, as := range st.Ledger.Accounts {
						var imps int
						var spend money.Micros
						for _, us := range as.Users {
							imps += us.Impressions
							spend += us.Spend
						}
						tot, err := p.CampaignTotals(context.Background(), "adv", as.CampaignID)
						if err != nil {
							t.Fatal(err)
						}
						if want := (CampaignTotals{Impressions: imps, Reach: len(as.Users), Spend: spend}); tot != want || as.Impressions != imps || as.Spend != spend {
							t.Fatalf("step %d, shard %d, %s: totals %+v, account %d and %v, its rows sum to %+v", step, s, as.CampaignID, tot, as.Impressions, as.Spend, want)
						}
					}
					for _, id := range ids {
						tot, err := p.CampaignTotals(context.Background(), "adv", id)
						if err != nil {
							t.Fatal(err)
						}
						rep, err := p.Report(context.Background(), "adv", id)
						if err != nil {
							t.Fatal(err)
						}
						if tot != models[s].totals(id) || rep != models[s].report(id) {
							t.Fatalf("step %d, shard %d, %s: totals %+v and report %+v, the map ledger's %+v and %+v", step, s, id, tot, rep, models[s].totals(id), models[s].report(id))
						}
					}
					if want := models[s].snapshot(); !reflect.DeepEqual(st.Ledger, want) {
						t.Fatalf("step %d, shard %d: ledger state\n%+v\nthe map ledger's\n%+v", step, s, st.Ledger, want)
					}
				}
			}
			if moves == 0 || restores == 0 || delivered < steps/2 {
				t.Fatalf("script premise: %d moves, %d restores, %d impressions", moves, restores, delivered)
			}
		})
	}
}
