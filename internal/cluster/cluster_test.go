package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// backend is the full surface the equivalence scenario drives — the union
// of httpapi.Backend and the population-management calls. Both
// *platform.Platform and *cluster.Cluster satisfy it; the scenario runs
// the exact same call sequence against each and the results must match.
type backend interface {
	AddUser(*profile.Profile) error
	User(profile.UserID) *profile.Profile
	Users() []profile.UserID
	BrowseFeed(profile.UserID, int) ([]ad.Impression, error)
	Feed(profile.UserID) []ad.Impression
	VisitPage(profile.UserID, pixel.PixelID) error
	LikePage(profile.UserID, string) error
	AdPreferences(profile.UserID) ([]attr.ID, error)
	AdvertisersTargetingMe(profile.UserID) ([]string, error)
	ExplainImpression(profile.UserID, ad.Impression) (explain.Explanation, error)
	RegisterAdvertiser(string) error
	CreateCampaign(string, platform.CampaignParams) (string, error)
	PauseCampaign(string, string) error
	CreateAudience(string, audience.Def) (audience.AudienceID, error)
	IssuePixel(string) (pixel.PixelID, error)
	PotentialReach(context.Context, string, audience.Spec) (int, error)
	Report(context.Context, string, string) (billing.Report, error)
	SearchAttributes(string) []*attr.Attribute
	Catalog() *attr.Catalog
}

var (
	_ backend = (*platform.Platform)(nil)
	_ backend = (*cluster.Cluster)(nil)
)

const scenarioSeed = 7

// scenarioPopulation builds a deterministic 80-user population: everyone
// gets PII and an age; partner attributes are spread in a fixed pattern so
// different users hold different subsets of the deployed Treads.
func scenarioPopulation(catalog *attr.Catalog) []*profile.Profile {
	partner := booleanAttrs(catalog.BySource(attr.SourcePartner))
	out := make([]*profile.Profile, 0, 80)
	for i := 0; i < 80; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		pr.SetCountry("US")
		pr.AgeYrs = uint8(20 + i%50)
		pr.SetPII(pii.Record{Emails: []string{fmt.Sprintf("user-%06d@example.com", i)}})
		for j := 0; j < 8; j++ {
			if (i+j)%3 == 0 {
				pr.SetAttr(partner[j].ID)
			}
		}
		out = append(out, pr)
	}
	return out
}

func booleanAttrs(pool []*attr.Attribute) []*attr.Attribute {
	var out []*attr.Attribute
	for _, a := range pool {
		if a.Kind != attr.Categorical {
			out = append(out, a)
		}
	}
	return out
}

// scenarioResult is everything the scenario produced that the equivalence
// assertions compare.
type scenarioResult struct {
	users     []profile.UserID
	campaigns []string // every campaign ID created (advertiser + Treads)
	treadIDs  []attr.ID
	provider  *core.Provider
	reachSpec audience.Spec
}

// runScenario drives the fixed end-to-end scenario — population, an
// ordinary advertiser with audiences and campaigns, then a full Treads
// deployment — against any backend. Every call is deterministic, so two
// backends given the same seed must produce identical observable results.
func runScenario(t *testing.T, b backend) scenarioResult {
	t.Helper()
	catalog := b.Catalog()
	pop := scenarioPopulation(catalog)
	var res scenarioResult
	for _, pr := range pop {
		if err := b.AddUser(pr); err != nil {
			t.Fatalf("AddUser(%s): %v", pr.ID, err)
		}
		res.users = append(res.users, pr.ID)
	}

	// An ordinary advertiser: pixel, audiences, two campaigns.
	if err := b.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	px, err := b.IssuePixel("acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i += 2 { // even users visit acme's site
		if err := b.VisitPage(res.users[i], px); err != nil {
			t.Fatalf("VisitPage(%s): %v", res.users[i], err)
		}
	}
	webAud, err := b.CreateAudience("acme", audience.Def{Kind: audience.KindWebsite, Name: "site visitors", Pixel: px})
	if err != nil {
		t.Fatal(err)
	}
	var keys []pii.MatchKey
	for i := 0; i < 30; i++ {
		k, err := pii.HashEmail(fmt.Sprintf("user-%06d@example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	piiAud, err := b.CreateAudience("acme", audience.Def{Kind: audience.KindPII, Name: "customer list", Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	partner := booleanAttrs(catalog.BySource(attr.SourcePartner))
	res.reachSpec = audience.Spec{Expr: attr.MustParse(fmt.Sprintf("attr(%s)", partner[0].ID))}
	camp1, err := b.CreateCampaign("acme", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{webAud}},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "acme web", Body: "retarget"},
	})
	if err != nil {
		t.Fatal(err)
	}
	camp2, err := b.CreateCampaign("acme", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{piiAud}},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "acme list", Body: "loyalty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.campaigns = append(res.campaigns, camp1, camp2)

	// Warm-up browsing against the advertiser campaigns.
	for _, uid := range res.users {
		if _, err := b.BrowseFeed(uid, 10); err != nil {
			t.Fatalf("BrowseFeed(%s): %v", uid, err)
		}
	}
	if err := b.PauseCampaign("acme", camp1); err != nil {
		t.Fatal(err)
	}

	// The Treads deployment: everyone opts in by liking the provider's
	// page, then one Tread per chosen partner attribute.
	tp, err := core.NewProvider(b, core.ProviderConfig{
		Name: "treads-tp", Mode: core.RevealObfuscated, CodebookSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.provider = tp
	for _, uid := range res.users {
		if err := b.LikePage(uid, tp.OptInPage()); err != nil {
			t.Fatalf("LikePage(%s): %v", uid, err)
		}
	}
	for j := 0; j < 6; j++ {
		res.treadIDs = append(res.treadIDs, partner[j].ID)
	}
	dep, err := tp.DeployAttrTreads(res.treadIDs)
	if err != nil {
		t.Fatal(err)
	}
	if dep.ControlID != "" {
		res.campaigns = append(res.campaigns, dep.ControlID)
	}
	treadCamps := make([]string, 0, len(dep.Campaigns))
	for id := range dep.Campaigns {
		treadCamps = append(treadCamps, id)
	}
	sort.Strings(treadCamps)
	res.campaigns = append(res.campaigns, treadCamps...)
	for _, uid := range res.users {
		if _, err := b.BrowseFeed(uid, 120); err != nil {
			t.Fatalf("BrowseFeed(%s): %v", uid, err)
		}
	}
	return res
}

func revealedAttrs(t *testing.T, b backend, tp *core.Provider, uid profile.UserID) []attr.ID {
	t.Helper()
	ext := &core.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(b.Feed(uid), b.Catalog())
	return rev.Attrs
}

// TestClusterSingleShardEquivalence is the acceptance equivalence test: a
// 1-shard cluster must be observationally identical to the bare platform —
// same feeds, same transparency surfaces, same reports, same reveal sets.
func TestClusterSingleShardEquivalence(t *testing.T) {
	bare := platform.New(platform.Config{Seed: scenarioSeed})
	clustered, err := cluster.NewInMemory(1, platform.Config{Seed: scenarioSeed}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes := runScenario(t, bare)
	gotRes := runScenario(t, clustered)
	assertEquivalent(t, bare, wantRes, clustered, gotRes)
}

// assertEquivalent checks that two backends driven through the same
// scenario are observationally identical: campaign IDs, feeds, every
// transparency surface, reveal sets, reports, and reach. The networked
// equivalence test reuses it verbatim — byte-identical over the wire is
// the acceptance bar, not "close enough".
func assertEquivalent(t *testing.T, want backend, wantRes scenarioResult, got backend, gotRes scenarioResult) {
	t.Helper()
	if !reflect.DeepEqual(wantRes.campaigns, gotRes.campaigns) {
		t.Fatalf("campaign IDs diverged:\nwant %v\ngot  %v", wantRes.campaigns, gotRes.campaigns)
	}

	for _, uid := range wantRes.users {
		if w, g := want.Feed(uid), got.Feed(uid); !reflect.DeepEqual(w, g) {
			t.Fatalf("feed(%s): want %d imps, got %d imps (diverged)", uid, len(w), len(g))
		}
		w, err1 := want.AdPreferences(uid)
		g, err2 := got.AdPreferences(uid)
		if err1 != nil || err2 != nil {
			t.Fatalf("AdPreferences(%s): %v / %v", uid, err1, err2)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("AdPreferences(%s) diverged", uid)
		}
		wantAdv, _ := want.AdvertisersTargetingMe(uid)
		gotAdv, _ := got.AdvertisersTargetingMe(uid)
		if !reflect.DeepEqual(wantAdv, gotAdv) {
			t.Fatalf("AdvertisersTargetingMe(%s): %v vs %v", uid, wantAdv, gotAdv)
		}
		wantRev := revealedAttrs(t, want, wantRes.provider, uid)
		gotRev := revealedAttrs(t, got, gotRes.provider, uid)
		if !reflect.DeepEqual(wantRev, gotRev) {
			t.Fatalf("reveal set(%s): %v vs %v", uid, wantRev, gotRev)
		}
	}

	for _, camp := range wantRes.campaigns {
		adv := "acme"
		if strings.HasPrefix(camp, "camp-") && !contains(wantRes.campaigns[:2], camp) {
			adv = wantRes.provider.Name()
		}
		w, err1 := want.Report(context.Background(), adv, camp)
		g, err2 := got.Report(context.Background(), adv, camp)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Report(%s): %v vs %v", camp, err1, err2)
		}
		if w != g {
			t.Fatalf("Report(%s): %+v vs %+v", camp, w, g)
		}
	}

	wantReach, err1 := want.PotentialReach(context.Background(), "acme", wantRes.reachSpec)
	gotReach, err2 := got.PotentialReach(context.Background(), "acme", gotRes.reachSpec)
	if err1 != nil || err2 != nil {
		t.Fatalf("PotentialReach: %v / %v", err1, err2)
	}
	if wantReach != gotReach {
		t.Fatalf("PotentialReach: %d vs %d", wantReach, gotReach)
	}

	// ExplainImpression agrees on a delivered impression.
	for _, uid := range wantRes.users {
		feed := want.Feed(uid)
		if len(feed) == 0 {
			continue
		}
		w, err1 := want.ExplainImpression(uid, feed[0])
		g, err2 := got.ExplainImpression(uid, feed[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("ExplainImpression(%s): %v / %v", uid, err1, err2)
		}
		if w != g {
			t.Fatalf("ExplainImpression(%s) diverged", uid)
		}
		break
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// TestClusterShardedCorrectness runs the scenario on a 4-shard cluster and
// checks the properties sharding must preserve: every user's reveal set is
// exactly the deployed Treads for attributes they hold, routing is
// ring-consistent, and merged reports match the sum of per-shard ledger
// ground truth.
func TestClusterShardedCorrectness(t *testing.T) {
	const nShards = 4
	plats := make([]*platform.Platform, nShards)
	for i := range plats {
		plats[i] = platform.New(platform.Config{Seed: stats.SubSeed(scenarioSeed, uint64(i))})
	}
	c, err := cluster.New(memShards(t, plats...), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, c)

	// Routing: each user lives on exactly the ring-owned shard.
	perShard := make([]int, nShards)
	for _, uid := range res.users {
		owner := c.Owner(uid)
		perShard[owner]++
		for i, p := range plats {
			if got := p.User(uid) != nil; got != (i == owner) {
				t.Fatalf("user %s: present-on-shard-%d=%v, ring owner %d", uid, i, got, owner)
			}
		}
	}
	for i, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d owns no users (distribution %v)", i, perShard)
		}
	}
	if got := len(c.Users()); got != len(res.users) {
		t.Fatalf("cluster has %d users, want %d", got, len(res.users))
	}

	// Reveal correctness: revealed == held ∩ deployed, for every user.
	deployed := make(map[attr.ID]bool)
	for _, id := range res.treadIDs {
		deployed[id] = true
	}
	for _, uid := range res.users {
		pr := c.User(uid)
		var want []attr.ID
		for _, id := range res.treadIDs {
			if pr.HasAttr(id) {
				want = append(want, id)
			}
		}
		got := revealedAttrs(t, c, res.provider, uid)
		gotSet := make(map[attr.ID]bool)
		for _, id := range got {
			if !deployed[id] {
				t.Fatalf("user %s: revealed undeployed attr %s", uid, id)
			}
			if !pr.HasAttr(id) {
				t.Fatalf("user %s: revealed attr %s the user does not hold", uid, id)
			}
			gotSet[id] = true
		}
		for _, id := range want {
			if !gotSet[id] {
				t.Fatalf("user %s: held+deployed attr %s was not revealed (got %v)", uid, id, got)
			}
		}
	}

	// Billing merge: the cluster report equals the sum of per-shard ledger
	// ground truth for every campaign.
	for _, camp := range res.campaigns {
		adv := "acme"
		if !contains(res.campaigns[:2], camp) {
			adv = res.provider.Name()
		}
		rep, err := c.Report(context.Background(), adv, camp)
		if err != nil {
			t.Fatalf("Report(%s): %v", camp, err)
		}
		var imps, reach int
		var spend money.Micros
		for _, p := range plats {
			tot, err := p.CampaignTotals(context.Background(), adv, camp)
			if err != nil {
				t.Fatal(err)
			}
			imps += tot.Impressions
			reach += tot.Reach
			spend += tot.Spend
		}
		want := billing.MakeReport(camp, imps, reach, spend, billing.ReachReportThreshold)
		if rep != want {
			t.Fatalf("Report(%s) = %+v, merged ground truth %+v", camp, rep, want)
		}
		if rep.Impressions != imps {
			t.Fatalf("Report(%s): %d impressions, shards delivered %d", camp, rep.Impressions, imps)
		}
	}

	// Reach merge: cluster-wide potential reach is thresholded on the sum
	// of exact per-shard counts.
	gotReach, err := c.PotentialReach(context.Background(), "acme", res.reachSpec)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, p := range plats {
		n, err := p.RawReach(context.Background(), "acme", res.reachSpec)
		if err != nil {
			t.Fatal(err)
		}
		exact += n
	}
	wantReach := 0
	if exact >= audience.MinReportableReach {
		wantReach = exact - exact%audience.ReachRounding
	}
	if gotReach != wantReach {
		t.Fatalf("PotentialReach = %d, want %d (exact %d)", gotReach, wantReach, exact)
	}
}

// TestClusterDivergenceDetected: replicated mutations verify shard
// agreement; a cluster assembled from shards with drifted advertiser state
// reports the divergence instead of silently splitting the namespace.
func TestClusterDivergenceDetected(t *testing.T) {
	p0 := platform.New(platform.Config{Seed: 1})
	p1 := platform.New(platform.Config{Seed: 2})
	if err := p1.RegisterAdvertiser("drift"); err != nil { // shard 1 drifts
		t.Fatal(err)
	}
	c, err := cluster.New(memShards(t, p0, p1), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RegisterAdvertiser("drift") // succeeds on 0, refused on 1
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergence not reported, got %v", err)
	}
}

// TestClusterLookalikeOfAPartitionedSeed: each shard derives a lookalike
// from the seed members it holds. Here the seed's one member lives on slot
// 2, so slots 0 and 1 have no seed member to generalize from; they must
// mint the audience all the same (matching nobody), or every later audience
// ID differs between the shards.
func TestClusterLookalikeOfAPartitionedSeed(t *testing.T) {
	c, err := cluster.NewInMemory(3, platform.Config{Seed: 1}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	salsa := c.Catalog().Search("Salsa dance")[0].ID
	var seedUser profile.UserID
	for i := 0; i < 30; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		pr.SetCountry("US")
		pr.AgeYrs = 30
		pr.SetAttr(salsa)
		if err := c.AddUser(pr); err != nil {
			t.Fatal(err)
		}
		if seedUser == "" && c.Owner(pr.ID) == 2 {
			seedUser = pr.ID
		}
	}
	if err := c.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	if err := c.LikePage(seedUser, "seed-page"); err != nil {
		t.Fatal(err)
	}
	seed, err := c.CreateAudience("acme", audience.Def{Kind: audience.KindEngagement, Name: "seed", Page: "seed-page"})
	if err != nil {
		t.Fatal(err)
	}
	look, err := c.CreateAudience("acme", audience.Def{Kind: audience.KindLookalike, Name: "like the seed", Seed: seed})
	if err != nil {
		t.Fatalf("lookalike: %v", err)
	}
	next, err := c.CreateAudience("acme", audience.Def{Kind: audience.KindEngagement, Name: "next", Page: "other-page"})
	if err != nil || next != "aud-000003" {
		t.Fatalf("the audience after the lookalike = (%q, %v), want aud-000003", next, err)
	}

	// Only slot 2 derived a signature (salsa): its users other than the
	// seed member are the lookalike; the other slots' users are not.
	camp, err := c.CreateCampaign("acme", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{look}},
		BidCapCPM: money.FromDollars(50),
		Creative:  ad.Creative{Headline: "h", Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range c.Users() {
		imps, err := c.BrowseFeed(uid, 5)
		if err != nil {
			t.Fatal(err)
		}
		shown := false
		for _, imp := range imps {
			shown = shown || imp.CampaignID == camp
		}
		if want := c.Owner(uid) == 2 && uid != seedUser; shown != want {
			t.Errorf("%s on slot %d: shown the lookalike's ad = %v, want %v", uid, c.Owner(uid), shown, want)
		}
	}
}

func TestClusterUnknownUserRoutes(t *testing.T) {
	c, err := cluster.NewInMemory(3, platform.Config{Seed: 1}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BrowseFeed("nobody", 5); err == nil {
		t.Fatal("browse for unknown user succeeded")
	}
	if err := c.LikePage("nobody", "p"); err == nil {
		t.Fatal("like for unknown user succeeded")
	}
	if c.User("nobody") != nil {
		t.Fatal("unknown user resolved")
	}
}

// TestClusterConcurrentSmoke floods a 4-shard cluster with the workload
// package's concurrent driver — the cross-shard concurrency exercise the
// race detector runs in CI. Replicated mutations run concurrently with the
// user traffic.
func TestClusterConcurrentSmoke(t *testing.T) {
	c, err := cluster.NewInMemory(4, platform.Config{Seed: 3}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Users = 200
	cfg.Seed = 3
	cfg.Catalog = c.Catalog()
	var users []profile.UserID
	for _, pr := range workload.Generate(cfg) {
		if err := c.AddUser(pr); err != nil {
			t.Fatal(err)
		}
		users = append(users, pr.ID)
	}
	if err := c.RegisterAdvertiser("smoke"); err != nil {
		t.Fatal(err)
	}
	px, err := c.IssuePixel("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCampaign("smoke", platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(18, 80)")},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "smoke", Body: "test"},
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { // advertiser mutations racing the user traffic
		for i := 0; i < 20; i++ {
			if _, err := c.CreateAudience("smoke", audience.Def{Kind: audience.KindEngagement, Name: fmt.Sprintf("aud-%d", i), Page: "page-alpha"}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	st := workload.Drive(c, workload.DriverConfig{
		Goroutines:      8,
		OpsPerGoroutine: 150,
		Users:           users,
		Pixels:          []pixel.PixelID{px},
		Seed:            3,
	})
	if err := <-done; err != nil {
		t.Fatalf("concurrent advertiser mutations: %v", err)
	}
	if st.Errors != 0 {
		t.Fatalf("driver saw %d backend errors: %+v", st.Errors, st)
	}
	if got, want := st.Ops(), int64(8*150); got != want {
		t.Fatalf("driver issued %d ops, want %d", got, want)
	}
	if st.Impressions == 0 {
		t.Fatal("no impressions delivered under concurrent load")
	}
}
