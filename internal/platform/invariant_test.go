package platform

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// TestDeliveryContractProperty is the system-level statement of the
// paper's foundation: across randomized populations and randomized
// targeting specs, every delivered impression goes to a user who matches
// the campaign's spec at delivery time, and (with an always-winning bid
// and enough slots) every matching user receives it. "A user is supposed
// to see a targeted ad if and only if they satisfy the advertiser's
// targeting parameters" (§1).
func TestDeliveryContractProperty(t *testing.T) {
	rng := stats.NewRNG(0xC0)
	catalog := attr.DefaultCatalog()
	plat := catalog.BySource(attr.SourcePlatform)
	part := catalog.BySource(attr.SourcePartner)

	randomExpr := func() attr.Expr {
		pick := func() attr.ID {
			if rng.Bool(0.5) {
				return plat[rng.Intn(len(plat))].ID
			}
			return part[rng.Intn(len(part))].ID
		}
		var e attr.Expr = attr.Has{ID: pick()}
		for depth := rng.Intn(3); depth > 0; depth-- {
			switch rng.Intn(4) {
			case 0:
				e = attr.NewAnd(e, attr.Has{ID: pick()})
			case 1:
				e = attr.NewOr(e, attr.Has{ID: pick()})
			case 2:
				e = attr.NewAnd(e, attr.AgeBetween{Min: 18 + rng.Intn(20), Max: 50 + rng.Intn(30)})
			case 3:
				e = attr.Not{Op: attr.Has{ID: pick()}}
			}
		}
		return e
	}

	for trial := 0; trial < 8; trial++ {
		market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.10)}
		p := New(Config{Market: &market, Seed: rng.Uint64()})
		cfg := workload.DefaultConfig()
		cfg.Users = 60
		cfg.Seed = rng.Uint64()
		cfg.Catalog = p.Catalog()
		pop := workload.Generate(cfg)
		for _, u := range pop {
			if err := p.AddUser(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.RegisterAdvertiser("prop-adv"); err != nil {
			t.Fatal(err)
		}
		specs := make(map[string]audience.Spec)
		for c := 0; c < 5; c++ {
			spec := audience.Spec{Expr: randomExpr()}
			id, err := p.CreateCampaign("prop-adv", CampaignParams{
				Spec:         spec,
				BidCapCPM:    money.FromDollars(10),
				Creative:     ad.Creative{Body: fmt.Sprintf("c%d", c)},
				FrequencyCap: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			specs[id] = spec
		}
		for _, u := range pop {
			if _, err := p.BrowseFeed(u.ID, 8); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range pop {
			seen := make(map[string]bool)
			for _, imp := range p.Feed(u.ID) {
				seen[imp.CampaignID] = true
			}
			for cid, spec := range specs {
				matches := spec.Expr.Match(p.User(u.ID))
				if seen[cid] && !matches {
					t.Fatalf("trial %d: user %s saw %s without matching %q",
						trial, u.ID, cid, spec.Expr)
				}
				// With a deterministic always-winning bid, 1-cap, 5
				// campaigns and 8 slots, every matching user must have
				// been reached.
				if !seen[cid] && matches {
					t.Fatalf("trial %d: user %s matches %q but never saw %s",
						trial, u.ID, spec.Expr, cid)
				}
			}
		}
	}
}

// TestAdvertiserAPINeverExposesUserIDs sweeps every advertiser-facing
// return value and asserts no user identity appears — the trust boundary
// the paper's privacy analysis assumes ("the advertising platform is
// designed to not reveal to the advertiser which particular users satisfy
// their targeting parameters", §1).
func TestAdvertiserAPINeverExposesUserIDs(t *testing.T) {
	p := fixedPlatform(t, 30, false)
	if err := p.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	px, err := p.IssuePixel("adv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		uid := profile.UserID(fmt.Sprintf("u%02d", i))
		if err := p.VisitPage(uid, px); err != nil {
			t.Fatal(err)
		}
	}
	webAud, err := p.CreateAudience("adv", audience.Def{Kind: audience.KindWebsite, Name: "visitors", Pixel: px})
	if err != nil {
		t.Fatal(err)
	}
	cid, err := p.CreateCampaign("adv", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{webAud}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p.BrowseFeed(profile.UserID(fmt.Sprintf("u%02d", i)), 3)
	}

	// Everything the advertiser can observe:
	report, err := p.Report(context.Background(), "adv", cid)
	if err != nil {
		t.Fatal(err)
	}
	reach, err := p.PotentialReach(context.Background(), "adv", audience.Spec{Include: []audience.AudienceID{webAud}})
	if err != nil {
		t.Fatal(err)
	}
	observable := fmt.Sprintf("%+v %d %s %s", report, reach, cid, webAud)
	for i := 0; i < 30; i++ {
		uid := fmt.Sprintf("u%02d", i)
		if containsStr(observable, uid) {
			t.Fatalf("advertiser observable %q contains user ID %q", observable, uid)
		}
	}
	// Reach is rounded, never exact-odd.
	if reach%audience.ReachRounding != 0 {
		t.Fatalf("reach %d not rounded to %d", reach, audience.ReachRounding)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestImpressionCountsAgree drives a seeded random script over two
// journaled platforms — browses, likes, pauses and new campaigns, with
// snapshot→restore, migration of random users between the two and
// crash-recovery at random points — and checks after every step that "how
// often has campaign c been shown to user u" is one number: the count of
// c in u's feed equals the ledger's per-user impressions, never exceeds
// the cap, and u's slot numbers keep strictly increasing. At the end every
// user browses until nothing more can be delivered: each live campaign
// they match must then sit exactly at its cap, which it can only do if the
// cap check's own view (recounted on every restore, import and recovery)
// agreed with the feed all along.
func TestImpressionCountsAgree(t *testing.T) {
	rng := stats.NewRNG(0x1907)
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.10)}
	opts := journal.Options{NoSync: true}
	dirs := []string{t.TempDir(), t.TempDir()}
	nodes := []*Journaled{
		mustOpenJournaled(t, dirs[0], opts, func() (*Platform, error) {
			p := New(Config{Market: &market, Seed: 11})
			cfg := workload.DefaultConfig()
			cfg.Users, cfg.Seed, cfg.Catalog = 24, 5, p.Catalog()
			for _, u := range workload.Generate(cfg) {
				if err := p.AddUser(u); err != nil {
					return nil, err
				}
			}
			return p, nil
		}),
		mustOpenJournaled(t, dirs[1], opts, func() (*Platform, error) { return New(Config{Market: &market, Seed: 12}), nil }),
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	users := nodes[0].Users()
	owner := func(uid profile.UserID) *Journaled {
		for _, n := range nodes {
			if n.User(uid) != nil {
				return n
			}
		}
		t.Fatalf("user %s is on neither platform", uid)
		return nil
	}

	// Advertiser configuration is replicated to both platforms, as a
	// cluster does, so a user's rows mean the same on either.
	caps := make(map[string]int)
	var campaigns []string
	create := func() {
		params := CampaignParams{
			Spec:         audience.Spec{Expr: attr.AgeBetween{Min: 18 + rng.Intn(30), Max: 40 + rng.Intn(40)}},
			BidCapCPM:    money.FromDollars(10),
			Creative:     ad.Creative{Body: fmt.Sprintf("c%d", len(campaigns))},
			FrequencyCap: 1 + rng.Intn(3),
		}
		id, err := nodes[0].CreateCampaign("adv", params)
		must(err)
		if id2, err := nodes[1].CreateCampaign("adv", params); err != nil || id2 != id {
			t.Fatalf("replicated create: %s, %v (want %s)", id2, err, id)
		}
		caps[id] = params.FrequencyCap
		campaigns = append(campaigns, id)
	}
	for _, n := range nodes {
		must(n.RegisterAdvertiser("adv"))
	}
	for i := 0; i < 3; i++ {
		create()
	}

	type pair struct {
		cid string
		uid profile.UserID
	}
	check := func(step int, what string) {
		t.Helper()
		for _, n := range nodes {
			ledger := make(map[pair]int)
			for _, as := range n.State().Ledger.Accounts {
				for _, us := range as.Users {
					ledger[pair{as.CampaignID, us.User}] = us.Impressions
				}
			}
			feed := make(map[pair]int)
			for _, uid := range n.Users() {
				imps := n.Feed(uid)
				for i, imp := range imps {
					if i > 0 && imp.Slot <= imps[i-1].Slot {
						t.Fatalf("step %d (%s): %s's slots go %d then %d", step, what, uid, imps[i-1].Slot, imp.Slot)
					}
					k := pair{imp.CampaignID, uid}
					if feed[k]++; feed[k] > caps[imp.CampaignID] {
						t.Fatalf("step %d (%s): %s shown to %s %d times, cap %d", step, what, k.cid, uid, feed[k], caps[k.cid])
					}
				}
			}
			if !reflect.DeepEqual(feed, ledger) {
				t.Fatalf("step %d (%s): feed counts %v != ledger per-user impressions %v", step, what, feed, ledger)
			}
		}
	}

	for step := 0; step < 400; step++ {
		uid := users[rng.Intn(len(users))]
		what := "browse"
		switch r := rng.Intn(100); {
		case r < 55:
			_, err := owner(uid).BrowseFeed(uid, 1+rng.Intn(4))
			must(err)
		case r < 65:
			what = "like"
			must(owner(uid).LikePage(uid, fmt.Sprintf("page-%d", rng.Intn(5))))
		case r < 70:
			what = "pause"
			id := campaigns[rng.Intn(len(campaigns))]
			for _, n := range nodes {
				must(n.PauseCampaign("adv", id))
			}
		case r < 75:
			what = "create"
			create()
		case r < 83:
			what = "snapshot→restore"
			n := nodes[rng.Intn(2)]
			must(n.InstallState(n.State()))
		case r < 93:
			what = "migrate"
			from := rng.Intn(2)
			var moving []profile.UserID
			for _, u := range nodes[from].Users() {
				if rng.Bool(0.2) {
					moving = append(moving, u)
				}
			}
			chunk, err := nodes[from].ExportUsers(moving)
			must(err)
			must(nodes[1-from].ImportUsers(chunk))
			must(nodes[from].RemoveUsers(moving))
		default:
			what = "crash-recover"
			i := rng.Intn(2)
			must(nodes[i].Close())
			nodes[i] = mustOpenJournaled(t, dirs[i], opts, noBoot(t))
		}
		check(step, what)
	}

	saturated := 0
	for _, n := range nodes {
		p := n.p.Load()
		for _, uid := range n.Users() {
			_, err := n.BrowseFeed(uid, 3*len(campaigns))
			must(err)
			shown := make(map[string]int)
			for _, imp := range n.Feed(uid) {
				shown[imp.CampaignID]++
			}
			for _, id := range campaigns {
				c, ok := p.pipeline.Campaign(id)
				if !ok {
					t.Fatalf("campaign %s not registered", id)
				}
				match, err := p.audiences.SpecMatches(c.Spec, p.User(uid))
				must(err)
				if !c.Paused && match {
					if shown[c.ID] != caps[c.ID] {
						t.Fatalf("%s matches live %s and browsed to exhaustion, yet saw it %d times, cap %d", uid, c.ID, shown[c.ID], caps[c.ID])
					}
					saturated++
				}
			}
		}
	}
	check(400, "exhaustive browse")
	if saturated == 0 {
		t.Fatal("test premise: some user matches some live campaign")
	}
}
