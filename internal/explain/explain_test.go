package explain

import (
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

func catalogAndUser(t *testing.T) (*attr.Catalog, *profile.Profile, attr.ID, attr.ID) {
	t.Helper()
	c := attr.DefaultCatalog()
	platformAttr := c.BySource(attr.SourcePlatform)[0].ID
	partnerAttr := c.BySource(attr.SourcePartner)[0].ID
	p := profile.New("u1")
	p.AgeYrs = 34
	p.SetRegion("Boston")
	p.SetAttr(platformAttr)
	p.SetAttr(partnerAttr)
	return c, p, platformAttr, partnerAttr
}

func TestPreferencesHidePartnerAttributes(t *testing.T) {
	c, p, plat, part := catalogAndUser(t)
	e := New(c, nil)
	prefs := e.Preferences(p)
	foundPlat, foundPart := false, false
	for _, id := range prefs {
		if id == plat {
			foundPlat = true
		}
		if id == part {
			foundPart = true
		}
	}
	if !foundPlat {
		t.Error("preferences omit a platform attribute the user has")
	}
	if foundPart {
		t.Error("preferences reveal a partner attribute (the paper says they must not)")
	}
}

func TestPreferencesEmptyProfile(t *testing.T) {
	c, _, _, _ := catalogAndUser(t)
	e := New(c, nil)
	if got := e.Preferences(profile.New("fresh")); len(got) != 0 {
		t.Fatalf("fresh profile preferences = %v", got)
	}
}

func TestExplainRevealsAtMostOneAttribute(t *testing.T) {
	c, p, plat, part := catalogAndUser(t)
	e := New(c, nil)
	// Advertiser targeted two attributes the user has; the explanation
	// must disclose only one.
	targeting := attr.NewAnd(attr.Has{ID: plat}, attr.Has{ID: part})
	ex := e.Explain(targeting, p)
	if ex.Attribute == "" {
		t.Fatal("expected one disclosed attribute")
	}
	if ex.Attribute != plat {
		t.Fatalf("disclosed %q, want the platform-sourced %q (partner data is never disclosed)", ex.Attribute, plat)
	}
	mentionsBoth := strings.Contains(ex.Text, string(plat)) && strings.Contains(ex.Text, string(part))
	if mentionsBoth {
		t.Fatal("explanation discloses more than one attribute")
	}
}

func TestExplainNeverDisclosesPartnerAttributes(t *testing.T) {
	// An ad targeting ONLY partner attributes gets the generic fallback,
	// per Andreou et al.: platform explanations never surface broker data.
	c, p, _, part := catalogAndUser(t)
	e := New(c, nil)
	ex := e.Explain(attr.Has{ID: part}, p)
	if ex.Attribute != "" {
		t.Fatalf("partner attribute %q disclosed in explanation", ex.Attribute)
	}
	if !strings.Contains(ex.Text, "people like you") {
		t.Fatalf("expected generic fallback, got %q", ex.Text)
	}
}

func TestExplainPrefersMostPrevalent(t *testing.T) {
	c, p, plat, part := catalogAndUser(t)
	prev := func(id attr.ID) float64 {
		if id == plat {
			return 0.9 // common, unsurprising
		}
		return 0.01
	}
	e := New(c, prev)
	ex := e.Explain(attr.NewAnd(attr.Has{ID: part}, attr.Has{ID: plat}), p)
	if ex.Attribute != plat {
		t.Fatalf("disclosed %q, want the most prevalent %q", ex.Attribute, plat)
	}
}

func TestExplainSkipsAttributesUserLacks(t *testing.T) {
	c, p, plat, _ := catalogAndUser(t)
	other := c.BySource(attr.SourcePlatform)[5].ID
	e := New(c, nil)
	ex := e.Explain(attr.NewAnd(attr.Has{ID: plat}, attr.Has{ID: other}), p)
	if ex.Attribute != plat {
		t.Fatalf("disclosed %q, want only the attribute the user has (%q)", ex.Attribute, plat)
	}
}

func TestExplainGenericFallback(t *testing.T) {
	c, p, _, _ := catalogAndUser(t)
	e := New(c, nil)
	// Control-ad style targeting references no attributes.
	ex := e.Explain(attr.MatchAll{}, p)
	if ex.Attribute != "" {
		t.Fatalf("generic explanation disclosed %q", ex.Attribute)
	}
	if !strings.Contains(ex.Text, "34") || !strings.Contains(ex.Text, "Boston") {
		t.Fatalf("generic explanation missing demographics: %q", ex.Text)
	}
}

func TestExplainGenericFallbackUnknownRegion(t *testing.T) {
	c, _, _, _ := catalogAndUser(t)
	e := New(c, nil)
	p := profile.New("u2")
	ex := e.Explain(attr.MatchAll{}, p)
	if !strings.Contains(ex.Text, "unknown") {
		t.Fatalf("explanation for empty region: %q", ex.Text)
	}
}

func TestExplainUsesHumanReadableName(t *testing.T) {
	c := attr.DefaultCatalog()
	target := c.Search("Salsa dance")[0]
	p := profile.New("u1")
	p.SetAttr(target.ID)
	e := New(c, nil)
	ex := e.Explain(attr.Has{ID: target.ID}, p)
	if !strings.Contains(ex.Text, "Salsa dance") {
		t.Fatalf("explanation should use the display name: %q", ex.Text)
	}
}

func TestExplainExcludedAttributeNeverDisclosed(t *testing.T) {
	// An advertiser excluding attribute X must not cause X to appear in
	// explanations for users who lack X.
	c, _, plat, _ := catalogAndUser(t)
	p := profile.New("u3")
	p.AgeYrs = 50
	e := New(c, nil)
	ex := e.Explain(attr.Not{Op: attr.Has{ID: plat}}, p)
	if ex.Attribute != "" {
		t.Fatalf("excluded attribute disclosed: %q", ex.Attribute)
	}
}
