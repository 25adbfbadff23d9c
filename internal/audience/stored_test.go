package audience

import (
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// TestAddKeepsTheCallersProfile: Store.Add holds the profile it is handed,
// so a like through the caller's pointer after the add (what the end-to-end
// benchmark does to the generated users it stores) reaches the index, and
// an indexed engagement audience answers it from the index, not from the
// scan fallback.
func TestAddKeepsTheCallersProfile(t *testing.T) {
	store := profile.NewStore()
	eng := NewEngine(store, pixel.NewRegistry())
	if err := eng.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	var users []*profile.Profile
	for i := 0; i < 3; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%d", i)))
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
		if got := store.Get(p.ID); got != p {
			t.Fatalf("Get(%s) = %p, want the added profile %p", p.ID, got, p)
		}
		users = append(users, p)
	}
	const page = "page-first-liked-after-add"
	aud := eng.CreateEngagementAudience("adv", "fans", page)
	spec := Spec{IncludeAll: []AudienceID{aud.ID}}
	c, err := eng.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	users[1].Like(page)
	for i, p := range users {
		m, handled := eng.matchIndexed(&c, p)
		if !handled {
			t.Fatalf("%s: the engagement audience fell back to the scan", p.ID)
		}
		if want := i == 1; m != want {
			t.Fatalf("%s: indexed match = %v, want %v", p.ID, m, want)
		}
	}
	if !eng.Index().TestLike(page, users[1].Ord()) {
		t.Fatal("the index's like list misses the like made through the caller's pointer")
	}
	if n, err := eng.CountMatches(spec); err != nil || n != 1 {
		t.Fatalf("CountMatches = %d, %v, want 1", n, err)
	}
}
