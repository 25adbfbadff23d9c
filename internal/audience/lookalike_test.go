package audience

import (
	"fmt"
	"math"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// lookalikeFixture: seed = page likers u00..u04, all sharing salsa+jazz.
// u05..u09 are non-seed users with varying overlap.
func lookalikeFixture(t *testing.T) (*profile.Store, *Engine, AudienceID, attr.ID, attr.ID) {
	t.Helper()
	catalog := attr.DefaultCatalog()
	salsa := catalog.Search("Salsa dance")[0].ID
	jazz := catalog.Search("Jazz")[0].ID
	running := catalog.Search("Running")[0].ID
	store := profile.NewStore()
	for i := 0; i < 10; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
		p.SetCountry("US")
		switch {
		case i < 5: // seed members: consistent salsa+jazz profile
			p.SetAttr(salsa)
			p.SetAttr(jazz)
			p.Like("seed-page")
		case i < 7: // strong lookalikes: both signature attrs
			p.SetAttr(salsa)
			p.SetAttr(jazz)
		case i < 8: // partial: one of two
			p.SetAttr(salsa)
		default: // unrelated
			p.SetAttr(running)
		}
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(store, pixel.NewRegistry())
	seed := eng.CreateEngagementAudience("adv1", "seed", "seed-page")
	return store, eng, seed.ID, salsa, jazz
}

func TestLookalikeSignatureAndMembership(t *testing.T) {
	_, eng, seedID, salsa, jazz := lookalikeFixture(t)
	look, err := eng.CreateLookalikeAudience("adv1", "similar", seedID, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sig := look.signature
	if len(sig) != 2 {
		t.Fatalf("signature = %v, want [salsa jazz]", sig)
	}
	hasBoth := (sig[0] == salsa && sig[1] == jazz) || (sig[0] == jazz && sig[1] == salsa)
	if !hasBoth {
		t.Fatalf("signature = %v", sig)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{look.ID}})
	if err != nil {
		t.Fatal(err)
	}
	// At 0.9 overlap only u05, u06 (both attrs) qualify; seed members are
	// excluded.
	if len(got) != 2 || got[0] != "u05" || got[1] != "u06" {
		t.Fatalf("lookalike members = %v", got)
	}
}

func TestLookalikeOverlapThreshold(t *testing.T) {
	_, eng, seedID, _, _ := lookalikeFixture(t)
	loose, err := eng.CreateLookalikeAudience("adv1", "loose", seedID, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{loose.ID}})
	if err != nil {
		t.Fatal(err)
	}
	// 0.5 overlap admits the single-attribute u07 too.
	if len(got) != 3 {
		t.Fatalf("loose lookalike members = %v", got)
	}
}

func TestLookalikeExcludesSeed(t *testing.T) {
	_, eng, seedID, _, _ := lookalikeFixture(t)
	look, err := eng.CreateLookalikeAudience("adv1", "x", seedID, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resolve(eng, Spec{Include: []AudienceID{look.ID}})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range got {
		if uid < "u05" {
			t.Fatalf("seed member %s in lookalike", uid)
		}
	}
}

func TestLookalikeErrors(t *testing.T) {
	_, eng, seedID, _, _ := lookalikeFixture(t)
	if _, err := eng.CreateLookalikeAudience("adv1", "x", "aud-nope", 0); err == nil {
		t.Error("unknown seed accepted")
	}
	if _, err := eng.CreateLookalikeAudience("other-adv", "x", seedID, 0); err == nil {
		t.Error("cross-advertiser seed accepted")
	}
	look, err := eng.CreateLookalikeAudience("adv1", "x", seedID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateLookalikeAudience("adv1", "x2", look.ID, 0); err == nil {
		t.Error("lookalike-of-lookalike accepted")
	}
	for _, overlap := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Def{Kind: KindLookalike, Name: "x4", Seed: seedID, Overlap: overlap}
		if _, err := eng.Create("adv1", d, nil); err == nil {
			t.Errorf("overlap %v accepted", overlap)
		}
	}
}

// TestLookalikeOfNoSignatureMatchesNobody: a seed with no members here, or
// whose members here share no majority attribute, is how one shard of a
// cluster sees a seed whose members live elsewhere. The lookalike is
// created all the same (the other shards mint the ID) and matches nobody.
func TestLookalikeOfNoSignatureMatchesNobody(t *testing.T) {
	store, eng, _, _, _ := lookalikeFixture(t)
	store.Get("u07").Like("mixed-page") // salsa
	store.Get("u08").Like("mixed-page") // running
	for _, page := range []string{"nobody-likes-this", "mixed-page"} {
		seed := eng.CreateEngagementAudience("adv1", page, page)
		look, err := eng.CreateLookalikeAudience("adv1", "of "+page, seed.ID, 0)
		if err != nil {
			t.Fatalf("seed %s refused: %v", page, err)
		}
		if len(look.signature) != 0 {
			t.Fatalf("seed %s: signature %v, want none", page, look.signature)
		}
		got, err := resolve(eng, Spec{Include: []AudienceID{look.ID}})
		if err != nil || len(got) != 0 {
			t.Errorf("lookalike of seed %s matches %v (%v), want nobody", page, got, err)
		}
	}
}

func TestLookalikeKindString(t *testing.T) {
	if KindLookalike.String() != "lookalike" {
		t.Errorf("String() = %q", KindLookalike.String())
	}
}
