package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
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
