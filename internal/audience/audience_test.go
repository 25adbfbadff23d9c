package audience

import (
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// resolve lists the users the spec matches, in store order. Unknown
// audience IDs are an error.
func resolve(eng *Engine, spec Spec) ([]profile.UserID, error) {
	c, err := eng.Compile(spec)
	if err != nil {
		return nil, err
	}
	var out []profile.UserID
	eng.store.Each(func(p *profile.Profile) {
		if eng.matchScan(&c, p) {
			out = append(out, p.ID)
		}
	})
	return out, nil
}

// fixture builds a store of n users u00..u(n-1); even users like "page-opt"
// and have the jazz attribute; u00 has alice's email.
func fixture(t *testing.T, n int) (*profile.Store, *pixel.Registry, *Engine) {
	t.Helper()
	store := profile.NewStore()
	for i := 0; i < n; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
		p.AgeYrs = 20 + i%40
		p.Nation = "US"
		if i%2 == 0 {
			p.SetAttr("platform.music.jazz")
			p.Like("page-opt")
		}
		if i == 0 {
			p.PII = pii.Record{Emails: []string{"alice@example.com"}}
		}
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	reg := pixel.NewRegistry()
	return store, reg, NewEngine(store, reg)
}

func TestPIIAudienceResolve(t *testing.T) {
	_, _, eng := fixture(t, 10)
	k, err := pii.HashEmail("Alice@Example.com")
	if err != nil {
		t.Fatal(err)
	}
	bogus, _ := pii.HashEmail("nobody@example.com")
	a := eng.CreatePIIAudience("adv1", "customers", []pii.MatchKey{k, bogus})
	if a.Kind != KindPII {
		t.Fatalf("Kind = %v", a.Kind)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "u00" {
		t.Fatalf("resolve = %v", got)
	}
}

func TestWebsiteAudienceResolve(t *testing.T) {
	_, reg, eng := fixture(t, 10)
	px := reg.Issue("adv1")
	for _, u := range []profile.UserID{"u03", "u05"} {
		if err := reg.RecordVisit(px.ID, u); err != nil {
			t.Fatal(err)
		}
	}
	a, err := eng.CreateWebsiteAudience("adv1", "site visitors", px.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "u03" || got[1] != "u05" {
		t.Fatalf("resolve = %v", got)
	}
	// Lazy resolution: later visits join the audience.
	if err := reg.RecordVisit(px.ID, "u07"); err != nil {
		t.Fatal(err)
	}
	got, _ = resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if len(got) != 3 {
		t.Fatalf("audience did not pick up later visit: %v", got)
	}
}

func TestWebsiteAudienceOwnership(t *testing.T) {
	_, reg, eng := fixture(t, 4)
	px := reg.Issue("adv1")
	if _, err := eng.CreateWebsiteAudience("adv2", "theft", px.ID); err == nil {
		t.Error("cross-advertiser pixel audience accepted")
	}
	if _, err := eng.CreateWebsiteAudience("adv1", "x", "px-bogus"); err == nil {
		t.Error("unknown pixel accepted")
	}
}

func TestEngagementAudience(t *testing.T) {
	_, _, eng := fixture(t, 10)
	a := eng.CreateEngagementAudience("adv1", "page likers", "page-opt")
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // u00,u02,u04,u06,u08
		t.Fatalf("resolve = %v", got)
	}
	for i, u := range got {
		if want := profile.UserID(fmt.Sprintf("u%02d", 2*i)); u != want {
			t.Fatalf("resolve[%d] = %v, want %v", i, u, want)
		}
	}
}

func TestSpecIntersection(t *testing.T) {
	_, _, eng := fixture(t, 20)
	likers := eng.CreateEngagementAudience("adv1", "likers", "page-opt")
	spec := Spec{
		Include: []AudienceID{likers.ID},
		Expr:    attr.MustParse("attr(platform.music.jazz) AND age(20, 25)"),
	}
	got, err := resolve(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Even users i with age 20+i in [20,25]: i in {0,2,4}.
	want := []profile.UserID{"u00", "u02", "u04"}
	if len(got) != len(want) {
		t.Fatalf("resolve = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resolve = %v, want %v", got, want)
		}
	}
}

func TestSpecExclude(t *testing.T) {
	_, _, eng := fixture(t, 10)
	likers := eng.CreateEngagementAudience("adv1", "likers", "page-opt")
	got, err := resolve(eng, Spec{Exclude: []AudienceID{likers.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("exclude left %d users", len(got))
	}
	for _, u := range got {
		if u == "u00" || u == "u02" {
			t.Fatalf("excluded user %s present", u)
		}
	}
}

func TestSpecEmptyMatchesEveryone(t *testing.T) {
	_, _, eng := fixture(t, 7)
	got, err := resolve(eng, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("empty spec matched %d of 7", len(got))
	}
}

func TestSpecUnknownAudience(t *testing.T) {
	_, _, eng := fixture(t, 3)
	if _, err := resolve(eng, Spec{Include: []AudienceID{"aud-nope"}}); err == nil {
		t.Error("unknown include accepted")
	}
	if _, err := resolve(eng, Spec{Exclude: []AudienceID{"aud-nope"}}); err == nil {
		t.Error("unknown exclude accepted")
	}
}

func TestMatches(t *testing.T) {
	_, _, eng := fixture(t, 10)
	spec := Spec{Expr: attr.MustParse("attr(platform.music.jazz)")}
	ok, err := eng.SpecMatches(spec, eng.store.Get("u02"))
	if err != nil || !ok {
		t.Fatalf("SpecMatches(u02) = %v, %v", ok, err)
	}
	ok, err = eng.SpecMatches(spec, eng.store.Get("u03"))
	if err != nil || ok {
		t.Fatalf("SpecMatches(u03) = %v, %v", ok, err)
	}
}

func TestPotentialReachThresholdAndRounding(t *testing.T) {
	_, _, eng := fixture(t, 137)
	// Small audiences are suppressed entirely.
	small := Spec{Expr: attr.MustParse("age(20, 22)")} // ~3/40 of users
	reach, err := eng.PotentialReach(small)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := resolve(eng, small)
	if len(ids) >= MinReportableReach {
		t.Fatalf("fixture produced %d users, expected < %d", len(ids), MinReportableReach)
	}
	if reach != 0 {
		t.Fatalf("small reach = %d, want 0", reach)
	}
	// Large audiences are rounded down, never up.
	all := Spec{}
	reach, err = eng.PotentialReach(all)
	if err != nil {
		t.Fatal(err)
	}
	if reach != 130 {
		t.Fatalf("reach = %d, want 130 (137 rounded down)", reach)
	}
}

func TestKindString(t *testing.T) {
	if KindPII.String() != "pii" || KindWebsite.String() != "website" || KindEngagement.String() != "engagement" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind string empty")
	}
}
