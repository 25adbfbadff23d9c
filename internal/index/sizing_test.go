package index

import (
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

// TestAddSizesOnlyBootLists: while the index holds fewer users than New's
// hint, the attribute, value and demographic lists Add creates are
// allocated for the hint; a like list, and a list a later attribute change
// creates, start empty, since pages and runtime changes are not bounded by
// the catalog.
func TestAddSizesOnlyBootLists(t *testing.T) {
	const hint = 1000
	x := New(hint)
	p := profile.New("sizing-user")
	p.AgeYrs, p.Sex = 30, "female"
	p.SetCountry("US")
	p.SetRegion("Boston")
	p.SetAttr("test.sizing.binary")
	p.SetAttrValue("test.sizing.valued", "v")
	if err := profile.NewStore().Add(p); err != nil {
		t.Fatal(err)
	}
	if err := x.Add(p); err != nil {
		t.Fatal(err)
	}
	want := (hint + wordBits - 1) / wordBits
	for name, b := range map[string]*Bitmap{
		"binary": x.has["test.sizing.binary"],
		"value":  x.vals["test.sizing.valued"]["v"],
		"age":    x.ages[30],
		"region": x.regions["Boston"],
	} {
		if b == nil || cap(b.words) < want {
			t.Fatalf("%s list made by Add holds %v words, want %d", name, b, want)
		}
	}
	x.NoteLike(p.Ord(), "test.sizing.page", true)
	p.SetAttr("test.sizing.later")
	x.NoteAttrChanged(p, attr.Intern("test.sizing.later"))
	for name, b := range map[string]*Bitmap{
		"like":  x.likes["test.sizing.page"],
		"later": x.has["test.sizing.later"],
	} {
		if b == nil || !b.test(0) || cap(b.words) > 1 {
			t.Fatalf("%s list holds %v, want slot 0 set in one word", name, b)
		}
	}
}
