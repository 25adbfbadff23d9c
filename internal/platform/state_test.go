package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// buildRichPlatform assembles a platform exercising every stateful
// feature: users with PII/likes/geo/values, three advertisers, all four
// audience kinds, campaigns with budgets and pauses, delivered
// impressions, policy violations and a ban.
func buildRichPlatform(t *testing.T) *Platform {
	t.Helper()
	p := fixedPlatform(t, 8, false)
	life := p.Catalog().Get("platform.demographics.life_stage")
	u0 := p.User("u00")
	u0.SetAttrValue(life.ID, life.Values[3])
	u0.SetLocation(42.36, -71.06)

	extra := profile.New("pii-user")
	extra.Nation = "US"
	extra.AgeYrs = 44
	extra.PII = pii.Record{Emails: []string{"pii-user@example.com"}}
	extra.SetAttr(salsaID(p))
	if err := p.AddUser(extra); err != nil {
		t.Fatal(err)
	}

	for _, adv := range []string{"adv-a", "adv-b", "banned-adv"} {
		if err := p.RegisterAdvertiser(adv); err != nil {
			t.Fatal(err)
		}
	}
	p.Enforcer().Ban("banned-adv")

	px, err := p.IssuePixel("adv-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VisitPage("u01", px); err != nil {
		t.Fatal(err)
	}
	if err := p.LikePage("u02", "page-x"); err != nil {
		t.Fatal(err)
	}
	webAud, err := p.CreateAudience("adv-a", audience.Def{Kind: audience.KindWebsite, Name: "visitors", Pixel: px})
	if err != nil {
		t.Fatal(err)
	}
	engAud, err := p.CreateAudience("adv-a", audience.Def{Kind: audience.KindEngagement, Name: "likers", Page: "page-x"})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := pii.HashEmail("pii-user@example.com")
	piiAud, err := p.CreateAudience("adv-b", audience.Def{Kind: audience.KindPII, Name: "list", Keys: []pii.MatchKey{k}})
	if err != nil {
		t.Fatal(err)
	}
	affAud, err := p.CreateAudience("adv-b", audience.Def{Kind: audience.KindAffinity, Name: "dancers", Phrases: []string{"salsa dance"}})
	if err != nil {
		t.Fatal(err)
	}
	lookAud, err := p.CreateAudience("adv-a", audience.Def{Kind: audience.KindLookalike, Name: "like the likers", Seed: engAud, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	mk := func(adv string, spec audience.Spec, budget money.Micros) string {
		id, err := p.CreateCampaign(adv, CampaignParams{
			Spec:      spec,
			BidCapCPM: money.FromDollars(10),
			Creative:  ad2("camp for " + adv),
			Budget:    budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mk("adv-a", audience.Spec{Include: []audience.AudienceID{webAud}}, 0)
	mk("adv-a", audience.Spec{Include: []audience.AudienceID{engAud}, Expr: attr.MustParse("age(18, 99)")}, money.FromDollars(1))
	mk("adv-b", audience.Spec{Include: []audience.AudienceID{piiAud}}, 0)
	mk("adv-a", audience.Spec{Include: []audience.AudienceID{lookAud}}, 0)
	pausedID := mk("adv-b", audience.Spec{IncludeAll: []audience.AudienceID{affAud}}, 0)
	if err := p.PauseCampaign("adv-b", pausedID); err != nil {
		t.Fatal(err)
	}

	// Deliver some impressions.
	for _, uid := range []profile.UserID{"u01", "u02", "pii-user"} {
		if _, err := p.BrowseFeed(uid, 5); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := buildRichPlatform(t)
	snap := orig.State()
	parsed, err := ReadSnapshot(bytes.NewReader(marshalState(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(parsed)
	if err != nil {
		t.Fatal(err)
	}

	// Users and their profile details survive.
	if got, want := len(restored.Users()), len(orig.Users()); got != want {
		t.Fatalf("users = %d, want %d", got, want)
	}
	u0 := restored.User("u00")
	if u0 == nil || !u0.HasGeo {
		t.Fatal("u00 geo lost")
	}
	life := restored.Catalog().Get("platform.demographics.life_stage")
	if v, ok := u0.AttrValue(life.ID); !ok || v != life.Values[3] {
		t.Fatalf("categorical value lost: %q %v", v, ok)
	}
	if !restored.User("u02").LikesPage("page-x") {
		t.Fatal("page like lost")
	}

	// Feeds survive byte-for-byte.
	for _, uid := range []profile.UserID{"u01", "u02", "pii-user"} {
		a, b := orig.Feed(uid), restored.Feed(uid)
		if len(a) != len(b) {
			t.Fatalf("feed length for %s: %d vs %d", uid, len(a), len(b))
		}
		for i := range a {
			if a[i].CampaignID != b[i].CampaignID || a[i].Creative.Body != b[i].Creative.Body {
				t.Fatalf("feed for %s differs at %d", uid, i)
			}
		}
	}

	// Reports (spend, impressions, reach) survive.
	for _, o := range snap.Owner {
		ra, err := orig.Report(context.Background(), o.Advertiser, o.CampaignID)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := restored.Report(context.Background(), o.Advertiser, o.CampaignID)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("report for %s differs: %+v vs %+v", o.CampaignID, ra, rb)
		}
	}

	// Bans survive.
	if !restored.Enforcer().Banned("banned-adv") {
		t.Fatal("ban lost")
	}
	// Ownership survives: cross-advertiser report still rejected.
	if _, err := restored.Report(context.Background(), "adv-b", snap.Owner[0].CampaignID); err == nil {
		t.Fatal("ownership lost")
	}
}

func TestSnapshotRestoredPlatformKeepsWorking(t *testing.T) {
	orig := buildRichPlatform(t)
	restored, err := Restore(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	// Frequency caps survive: the pixel visitor already saw the web
	// campaign (cap 2 default); after two more views nothing new arrives
	// from that campaign.
	before := len(restored.Feed("u01"))
	if _, err := restored.BrowseFeed("u01", 10); err != nil {
		t.Fatal(err)
	}
	after := len(restored.Feed("u01"))
	if after-before > 1 {
		t.Fatalf("restored pipeline over-delivered: %d new impressions", after-before)
	}
	// New advertisers and campaigns still work and get fresh IDs.
	if err := restored.RegisterAdvertiser("post-restore"); err != nil {
		t.Fatal(err)
	}
	id, err := restored.CreateCampaign("post-restore", CampaignParams{
		BidCapCPM: money.FromDollars(10),
		Creative:  ad2("fresh"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range orig.State().Owner {
		if o.CampaignID == id {
			t.Fatalf("restored platform reused campaign ID %s", id)
		}
	}
}

// TestNonFiniteLookalikeOverlapRefused: JSON has no NaN or infinity, so a
// lookalike stored with one would make every later snapshot of the
// platform fail to encode.
func TestNonFiniteLookalikeOverlapRefused(t *testing.T) {
	p := New(Config{Seed: 1})
	u := profile.New("u00")
	u.SetAttr(p.Catalog().Search("Salsa dance")[0].ID)
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	if err := p.LikePage("u00", "page-x"); err != nil {
		t.Fatal(err)
	}
	seed, err := p.CreateAudience("adv", audience.Def{Kind: audience.KindEngagement, Name: "likers", Page: "page-x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, overlap := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := audience.Def{Kind: audience.KindLookalike, Name: "look", Seed: seed, Overlap: overlap}
		if id, err := p.CreateAudience("adv", d); err == nil {
			t.Errorf("overlap %v accepted as %s", overlap, id)
		}
	}
	if err := WriteSnapshot(io.Discard, p.State()); err != nil {
		t.Fatalf("snapshot after the refusals: %v", err)
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	s := buildRichPlatform(t).State()
	s.Version = 99
	if _, err := Restore(s); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestReadSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	a := marshalState(t, buildRichPlatform(t).State())
	b := marshalState(t, buildRichPlatform(t).State())
	if string(a) != string(b) {
		t.Fatal("snapshots of identical platforms differ")
	}
}

// ad2 builds a tiny creative.
func ad2(body string) ad.Creative {
	return ad.Creative{Body: body}
}

// TestRestoreStateWrittenBeforeDerivedCounts loads testdata/state_pr12.json,
// a snapshot written by the last build that persisted per-user impression
// counts a second time under pipeline.freq (scripted platform plus extra
// browses: two campaigns, one paused, eight users with feeds and slot
// counters, ledger rows). The counts are now recounted from the feeds, so:
// the re-taken snapshot is the fixture minus that key, as a JSON value; the
// recount equals what the old build stored; and a cap it had recorded as
// reached still holds.
func TestRestoreStateWrittenBeforeDerivedCounts(t *testing.T) {
	raw, err := os.ReadFile("testdata/state_pr12.json")
	if err != nil {
		t.Fatal(err)
	}
	state, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Restore(state)
	if err != nil {
		t.Fatal(err)
	}

	var want, got map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(marshalState(t, p.State()), &got); err != nil {
		t.Fatal(err)
	}
	pipeline := want["pipeline"].(map[string]any)
	freq := pipeline["freq"].([]any)
	delete(pipeline, "freq")
	if len(freq) == 0 || len(pipeline["feeds"].([]any)) == 0 || len(pipeline["slots"].([]any)) == 0 {
		t.Fatal("fixture premise: non-empty freq, feeds and slots")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-taken snapshot != fixture with its freq key removed")
	}

	// Every stored count is the feed's, and every (campaign, user) the old
	// build had at the cap stays there however much the user browses on.
	count := func(cid string, uid profile.UserID) (n int) {
		for _, imp := range p.Feed(uid) {
			if imp.CampaignID == cid {
				n++
			}
		}
		return n
	}
	type stored struct {
		cid string
		uid profile.UserID
		n   int
	}
	var atCap []stored
	for _, row := range freq {
		cid := row.(map[string]any)["campaign_id"].(string)
		c, ok := p.comp.Load().pipeline.Campaign(cid)
		if !ok || c.FrequencyCap != 0 {
			t.Fatalf("fixture premise: %s is a registered campaign with the default cap", cid)
		}
		for _, uc := range row.(map[string]any)["counts"].([]any) {
			r := stored{cid, profile.UserID(uc.(map[string]any)["user"].(string)), int(uc.(map[string]any)["n"].(float64))}
			if got := count(r.cid, r.uid); got != r.n {
				t.Fatalf("%s/%s: feed holds %d impressions, the old build stored %d", r.cid, r.uid, got, r.n)
			}
			if r.n >= delivery.DefaultFrequencyCap {
				atCap = append(atCap, r)
			}
		}
	}
	if len(atCap) == 0 {
		t.Fatal("fixture premise: at least one cap already reached")
	}
	for _, r := range atCap {
		if _, err := p.BrowseFeed(r.uid, 20); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range atCap {
		if got := count(r.cid, r.uid); got != r.n {
			t.Fatalf("%s/%s: cap was reached at %d, the restored platform delivered %d", r.cid, r.uid, r.n, got)
		}
	}
}

// orphanRow returns s with one row of user "ghost", whom s's profiles do
// not hold, added to the named table. s is not modified.
func orphanRow(s State, table string) State {
	const ghost = "ghost"
	switch table {
	case "feed":
		imp := s.Pipeline.Feeds[0].Impressions[0]
		s.Pipeline.Feeds = append(s.Pipeline.Feeds[:len(s.Pipeline.Feeds):len(s.Pipeline.Feeds)], delivery.FeedState{User: ghost, Impressions: []ad.Impression{imp}})
	case "slot counter":
		s.Pipeline.Slots = append(s.Pipeline.Slots[:len(s.Pipeline.Slots):len(s.Pipeline.Slots)], delivery.SlotState{User: ghost, N: 1})
	case "billing":
		accts := append([]billing.AccountState(nil), s.Ledger.Accounts...)
		accts[0].Users = append(accts[0].Users[:len(accts[0].Users):len(accts[0].Users)], billing.UserAccountState{User: ghost, Impressions: 1, Spend: 1})
		accts[0].Impressions++
		accts[0].Spend++
		s.Ledger.Accounts = accts
	case "pixel":
		pxs := append([]pixel.PixelState(nil), s.Pixels.Pixels...)
		pxs[0].Visitors = append(pxs[0].Visitors[:len(pxs[0].Visitors):len(pxs[0].Visitors)], ghost)
		s.Pixels.Pixels = pxs
	}
	return s
}

// orphanTables are the per-user tables orphanRow can add a row to.
var orphanTables = []string{"feed", "slot counter", "billing", "pixel"}

// TestRestoreRefusesOrphanRows: a state whose delivery, billing or pixel
// rows name a user its profiles do not hold is refused, with an error
// naming the user and the table. A node keys those rows by the user's
// ordinal in its profile store, which such a user has none of; earlier
// builds restored the rows and kept them.
func TestRestoreRefusesOrphanRows(t *testing.T) {
	doc, err := os.ReadFile("testdata/state_pr12.json")
	if err != nil {
		t.Fatal(err)
	}
	var s State
	if err := json.Unmarshal(doc, &s); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(s); err != nil {
		t.Fatalf("premise: the fixture does not restore: %v", err)
	}
	for _, table := range orphanTables {
		_, err := Restore(orphanRow(s, table))
		if err == nil || !strings.Contains(err.Error(), `"ghost"`) || !strings.Contains(err.Error(), table) || !strings.Contains(err.Error(), "not one of the state's users") {
			t.Errorf("restoring a %s row of a user with no profile: %v, want an error naming the user and the table", table, err)
		}
	}
	if _, err := Restore(s); err != nil {
		t.Fatalf("adding the orphan rows changed the state they were added to: %v", err)
	}
}

// recount returns s with its first billing row counting one impression
// more than the user's feed holds of the campaign, the account's total
// raised with it, so that the row and the feed are the only two figures
// that disagree, and the two counts. s is not modified.
func recount(s State) (State, int, int) {
	accts := append([]billing.AccountState(nil), s.Ledger.Accounts...)
	rows := append([]billing.UserAccountState(nil), accts[0].Users...)
	rows[0].Impressions++
	accts[0].Users = rows
	accts[0].Impressions++
	s.Ledger.Accounts = accts
	return s, rows[0].Impressions, rows[0].Impressions - 1
}

// disagreement returns a (campaign, user) pair whose billing row in s
// counts other than the user's feed holds of the campaign, a pair with no
// row counting as 0; "" when every pair agrees.
func disagreement(s State) string {
	feed := make(map[[2]string]int)
	for _, fs := range s.Pipeline.Feeds {
		for _, imp := range fs.Impressions {
			feed[[2]string{imp.CampaignID, string(fs.User)}]++
		}
	}
	for _, as := range s.Ledger.Accounts {
		for _, us := range as.Users {
			pair := [2]string{as.CampaignID, string(us.User)}
			if feed[pair] != us.Impressions {
				return pair[0] + "/" + pair[1]
			}
			delete(feed, pair)
		}
	}
	for pair := range feed {
		return pair[0] + "/" + pair[1]
	}
	return ""
}

// TestRestoreRefusesTwoCountsForOnePair: a node keeps one count per
// (campaign, user) pair, in the user's account row, so a state whose
// billing row for a pair counts other than the user's feed holds of the
// campaign is refused, naming the pair and both counts, and so is a pair
// the feeds hold and the ledger does not bill. Earlier builds kept the two
// counts in two tables and restored both. Both fixtures agree on every
// pair.
func TestRestoreRefusesTwoCountsForOnePair(t *testing.T) {
	for _, path := range []string{"testdata/state_pr12.json", "testdata/journal_pr14_state.json"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s State
		if err := json.Unmarshal(doc, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(s); err != nil || disagreement(s) != "" {
			t.Fatalf("%s premise: the fixture restores (%v) and agrees with itself (%q)", path, err, disagreement(s))
		}
		bad, billed, held := recount(s)
		as := bad.Ledger.Accounts[0]
		_, err = Restore(bad)
		if err == nil || !strings.Contains(err.Error(), `"`+string(as.Users[0].User)+`"`) || !strings.Contains(err.Error(), `"`+as.CampaignID+`"`) ||
			!strings.Contains(err.Error(), fmt.Sprintf("for %d impressions", billed)) || !strings.Contains(err.Error(), fmt.Sprintf("holds %d", held)) {
			t.Errorf("%s: restoring a billing row of %d impressions beside a feed of %d: %v, want an error naming the user, the campaign and both counts", path, billed, held, err)
		}
		unbilled := s
		unbilled.Ledger.Accounts = append([]billing.AccountState(nil), s.Ledger.Accounts...)
		first := &unbilled.Ledger.Accounts[0]
		first.Impressions -= first.Users[0].Impressions
		first.Spend -= first.Users[0].Spend
		first.Users = first.Users[1:]
		if _, err := Restore(unbilled); err == nil || !strings.Contains(err.Error(), `"`+string(s.Ledger.Accounts[0].Users[0].User)+`"`) || !strings.Contains(err.Error(), "bills them for none") {
			t.Errorf("%s: restoring a feed pair with no billing row: %v, want an error naming the user", path, err)
		}
	}
}
