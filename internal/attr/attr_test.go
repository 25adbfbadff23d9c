package attr

import (
	"strings"
	"testing"
)

func TestDefaultCatalogCounts(t *testing.T) {
	c := DefaultCatalog()
	plat := len(c.BySource(SourcePlatform))
	part := len(c.BySource(SourcePartner))
	if plat != NumPlatformAttrs {
		t.Errorf("platform attributes = %d, want %d", plat, NumPlatformAttrs)
	}
	if part != NumPartnerAttrs {
		t.Errorf("partner attributes = %d, want %d", part, NumPartnerAttrs)
	}
	if c.Len() != NumPlatformAttrs+NumPartnerAttrs {
		t.Errorf("total = %d, want %d", c.Len(), NumPlatformAttrs+NumPartnerAttrs)
	}
}

func TestDefaultCatalogDeterministic(t *testing.T) {
	a := DefaultCatalog().All()
	b := DefaultCatalog().All()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Name != b[i].Name {
			t.Fatalf("catalog differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDefaultCatalogUniqueIDs(t *testing.T) {
	c := DefaultCatalog()
	seen := make(map[ID]bool)
	for _, a := range c.All() {
		if seen[a.ID] {
			t.Fatalf("duplicate ID %q", a.ID)
		}
		seen[a.ID] = true
	}
}

func TestDefaultCatalogPartnerHaveBrokers(t *testing.T) {
	c := DefaultCatalog()
	for _, a := range c.BySource(SourcePartner) {
		if a.Broker == "" {
			t.Fatalf("partner attribute %q has no broker", a.ID)
		}
	}
	for _, a := range c.BySource(SourcePlatform) {
		if a.Broker != "" {
			t.Fatalf("platform attribute %q has broker %q", a.ID, a.Broker)
		}
	}
}

func TestDefaultCatalogPaperAttributes(t *testing.T) {
	// The validation in §3.1 revealed net worth, purchase behaviour
	// (restaurants, apparel), job role, home type, and auto purchase
	// intent; Figure 1 shows the "net worth over $2M" band. All must exist.
	c := DefaultCatalog()
	for _, query := range []string{
		"Net worth: over $2,000,000",
		"Purchases at fine dining restaurants",
		"Buys luxury apparel",
		"Job role: technology professional",
		"Home type: single family dwelling",
		"Likely to purchase a vehicle within 90 days",
	} {
		hits := c.Search(query)
		if len(hits) == 0 {
			t.Errorf("catalog missing paper attribute %q", query)
			continue
		}
		if hits[0].Source != SourcePartner {
			t.Errorf("%q should be partner-sourced, got %v", query, hits[0].Source)
		}
	}
	if hits := c.Search("Salsa dance"); len(hits) == 0 || hits[0].Source != SourcePlatform {
		t.Errorf("catalog missing the platform 'Salsa dance' interest")
	}
}

func TestCatalogSearch(t *testing.T) {
	c := DefaultCatalog()
	hits := c.Search("net worth")
	if len(hits) != 9 {
		t.Errorf("search 'net worth' = %d hits, want the 9 bands", len(hits))
	}
	if len(c.Search("")) != 0 {
		t.Error("empty query should match nothing")
	}
	if len(c.Search("   ")) != 0 {
		t.Error("whitespace query should match nothing")
	}
	// Case-insensitive.
	if len(c.Search("SALSA")) == 0 {
		t.Error("search should be case-insensitive")
	}
	// Category names are searchable too.
	if len(c.Search("Purchase behavior")) == 0 {
		t.Error("category search failed")
	}
}

func TestCatalogAccessors(t *testing.T) {
	c := DefaultCatalog()
	a := c.All()[0]
	if got := c.Get(a.ID); got != a {
		t.Errorf("Get(%q) = %v", a.ID, got)
	}
	if c.Get("no.such.attr") != nil {
		t.Error("Get of unknown ID should be nil")
	}
	cats := map[string]int{}
	for _, a := range c.All() {
		cats[a.Category]++
	}
	if len(cats) < 10 {
		t.Errorf("only %d categories", len(cats))
	}
	if cats["Financial"] == 0 {
		t.Fatal("no Financial attributes")
	}
}

func TestCatalogHasCategoricalAttrs(t *testing.T) {
	c := DefaultCatalog()
	a := c.Get("platform.demographics.life_stage")
	if a == nil {
		t.Fatal("life_stage attribute missing")
	}
	if a.Kind != Categorical {
		t.Fatalf("life_stage kind = %v", a.Kind)
	}
	if len(a.Values) != 8 {
		t.Fatalf("life_stage has %d values, want 8", len(a.Values))
	}
	if !a.HasValue("young family") {
		t.Error("life_stage missing 'young family'")
	}
	if a.Values[2] != "young family" {
		t.Errorf("Values[2] = %q, want young family", a.Values[2])
	}
	if a.HasValue("nope") {
		t.Error("life_stage has the value nope")
	}
}

func TestNewCatalogErrors(t *testing.T) {
	if _, err := NewCatalog([]Attribute{{ID: "", Name: "x"}}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewCatalog([]Attribute{{ID: "a", Name: "x"}, {ID: "a", Name: "y"}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := NewCatalog([]Attribute{{ID: "a", Kind: Categorical, Values: []string{"one"}}}); err == nil {
		t.Error("single-value categorical accepted")
	}
}

func TestMustNewCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCatalog did not panic")
		}
	}()
	MustNewCatalog([]Attribute{{ID: ""}})
}

func TestSlug(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Salsa dance", "salsa_dance"},
		{"Net worth: over $2,000,000", "net_worth_over_2_000_000"},
		{"R&B", "r_b"},
		{"Expats (UK)", "expats_uk"},
		{"Liquid assets: over $1,000,000", "liquid_assets_over_1_000_000"},
		{"Net worth: $1 to $24,999", "net_worth_1_to_24_999"},
	}
	for _, c := range cases {
		if got := slug(c.in); got != c.want {
			t.Errorf("slug(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSourceKindStrings(t *testing.T) {
	if SourcePlatform.String() != "platform" || SourcePartner.String() != "partner" {
		t.Error("Source strings wrong")
	}
	if Binary.String() != "binary" || Categorical.String() != "categorical" {
		t.Error("Kind strings wrong")
	}
	if !strings.Contains(Source(9).String(), "9") || !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown enum strings wrong")
	}
}
