package audience

import (
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

func affinityFixture(t *testing.T) (*attr.Catalog, *profile.Store, *Engine) {
	t.Helper()
	catalog := attr.DefaultCatalog()
	store := profile.NewStore()
	salsa := catalog.Search("Salsa dance")[0].ID
	jazz := catalog.Search("Jazz")[0].ID
	// u0: salsa; u1: jazz; u2: neither.
	mk := func(id profile.UserID, attrs ...attr.ID) {
		p := profile.New(id)
		p.Nation = "US"
		for _, a := range attrs {
			p.SetAttr(a)
		}
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	mk("u0", salsa)
	mk("u1", jazz)
	mk("u2")
	return catalog, store, NewEngine(store, pixel.NewRegistry())
}

func TestAffinityAudienceResolvesKeywords(t *testing.T) {
	catalog, _, eng := affinityFixture(t)
	a, err := eng.CreateAffinityAudience("adv1", "dancers", []string{"salsa dance"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindAffinity {
		t.Fatalf("Kind = %v", a.Kind)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "u0" {
		t.Fatalf("resolve = %v", got)
	}
	if ph := a.phrases; len(ph) != 1 || ph[0] != "salsa dance" {
		t.Fatalf("Phrases = %v", ph)
	}
}

func TestAffinityAudienceMultiplePhrasesUnion(t *testing.T) {
	catalog, _, eng := affinityFixture(t)
	a, err := eng.CreateAffinityAudience("adv1", "music+dance", []string{"salsa dance", "jazz"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("resolve = %v", got)
	}
}

func TestAffinityAudienceUnmatchedPhrases(t *testing.T) {
	catalog, _, eng := affinityFixture(t)
	a, err := eng.CreateAffinityAudience("adv1", "nothing", []string{"zzz-no-such-keyword"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{a.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unmatched phrases resolved %v", got)
	}
}

func TestAffinityAudienceErrors(t *testing.T) {
	catalog, _, eng := affinityFixture(t)
	if _, err := eng.CreateAffinityAudience("adv1", "x", nil, catalog); err == nil {
		t.Error("empty phrase list accepted")
	}
	if _, err := eng.CreateAffinityAudience("adv1", "x", []string{"jazz"}, nil); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestIncludeAllNarrowing(t *testing.T) {
	catalog, store, eng := affinityFixture(t)
	// u0 likes the page AND has salsa; u1 likes the page but no salsa.
	store.Get("u0").Like("page")
	store.Get("u1").Like("page")
	likers := eng.CreateEngagementAudience("adv1", "likers", "page")
	dancers, err := eng.CreateAffinityAudience("adv1", "dancers", []string{"salsa dance"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Include:    []AudienceID{likers.ID},
		IncludeAll: []AudienceID{dancers.ID},
	}
	got, err := resolve(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "u0" {
		t.Fatalf("narrowed resolve = %v", got)
	}
	// Unknown audience in IncludeAll is an error.
	if _, err := resolve(eng, Spec{IncludeAll: []AudienceID{"aud-nope"}}); err == nil {
		t.Error("unknown include-all audience accepted")
	}
	if _, err := eng.Compile(Spec{IncludeAll: []AudienceID{"aud-nope"}}); err == nil {
		t.Error("Compile missed unknown include-all audience")
	}
}

func TestIncludeAllAloneActsAsIntersection(t *testing.T) {
	catalog, _, eng := affinityFixture(t)
	dancers, err := eng.CreateAffinityAudience("adv1", "dancers", []string{"salsa dance"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	musicians, err := eng.CreateAffinityAudience("adv1", "musicians", []string{"jazz"}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	// No user holds both salsa and jazz in the fixture.
	got, err := resolve(eng, Spec{IncludeAll: []AudienceID{dancers.ID, musicians.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("intersection = %v, want empty", got)
	}
}
