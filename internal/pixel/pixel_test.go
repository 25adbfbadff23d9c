package pixel

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/profile"
)

func TestIssueUniqueIDs(t *testing.T) {
	r := NewRegistry()
	seen := make(map[PixelID]bool)
	for i := 0; i < 100; i++ {
		p := r.Issue("adv1")
		if seen[p.ID] {
			t.Fatalf("duplicate pixel ID %q", p.ID)
		}
		seen[p.ID] = true
		if p.Advertiser != "adv1" {
			t.Fatalf("advertiser = %q", p.Advertiser)
		}
	}
}

func TestGet(t *testing.T) {
	r := NewRegistry()
	p := r.Issue("adv1")
	if r.Get(p.ID) != p {
		t.Error("Get returned wrong pixel")
	}
	if r.Get("px-nope") != nil {
		t.Error("Get of unknown pixel not nil")
	}
}

func TestRecordVisitAndVisitors(t *testing.T) {
	r := NewRegistry()
	p := r.Issue("adv1")
	// Ordinals in different bitmap words, the later one first.
	if err := r.RecordVisit(p.ID, 70); err != nil {
		t.Fatal(err)
	}
	if err := r.RecordVisit(p.ID, 1); err != nil {
		t.Fatal(err)
	}
	// Repeat visits are idempotent.
	if err := r.RecordVisit(p.ID, 70); err != nil {
		t.Fatal(err)
	}
	got := r.Visitors(p.ID)
	if len(got) != 2 || got[0] != 70 || got[1] != 1 {
		t.Fatalf("Visitors = %v", got)
	}
	if !r.HasVisited(p.ID, 70) || !r.HasVisited(p.ID, 1) || r.HasVisited(p.ID, 3) || r.HasVisited(p.ID, 1000) {
		t.Error("HasVisited wrong")
	}
}

func TestRecordVisitUnknownPixel(t *testing.T) {
	r := NewRegistry()
	if err := r.RecordVisit("px-nope", 1); err == nil {
		t.Error("unknown pixel accepted")
	}
}

func TestVisitorsEmptyForFreshPixel(t *testing.T) {
	r := NewRegistry()
	p := r.Issue("adv1")
	if n := len(r.Visitors(p.ID)); n != 0 {
		t.Fatalf("fresh pixel has %d visitors", n)
	}
	if len(r.Visitors(p.ID)) != 0 {
		t.Fatal("fresh pixel count nonzero")
	}
}

func TestPixelsIsolatedPerPixel(t *testing.T) {
	r := NewRegistry()
	p1 := r.Issue("adv1")
	p2 := r.Issue("adv2")
	if err := r.RecordVisit(p1.ID, 1); err != nil {
		t.Fatal(err)
	}
	if r.HasVisited(p2.ID, 1) {
		t.Error("visit leaked across pixels")
	}
}

func TestConcurrentVisits(t *testing.T) {
	r := NewRegistry()
	p := r.Issue("adv1")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := r.RecordVisit(p.ID, uint32(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(r.Visitors(p.ID)); n != 100 {
		t.Fatalf("VisitorCount = %d after concurrent idempotent visits", n)
	}
}

// TestStateNamesVisitorsByUserID: a snapshot names each visitor by the user
// ID its ordinal has in the store, in first-visit order, and restoring it
// over the same users gives the ordinals back. A visitor the store does not
// hold is refused, naming the pixel and the user.
func TestStateNamesVisitorsByUserID(t *testing.T) {
	store := profile.NewStore()
	for _, id := range []profile.UserID{"alice", "bob", "carol"} {
		if err := store.Add(profile.New(id)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry()
	px := r.Issue("adv1")
	r.Issue("adv2") // never visited
	for _, o := range []uint32{2, 0} {
		if err := r.RecordVisit(px.ID, o); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Snapshot(store)
	want := State{NextID: 2, Pixels: []PixelState{
		{ID: "px-000001", Advertiser: "adv1", Visitors: []profile.UserID{"carol", "alice"}},
		{ID: "px-000002", Advertiser: "adv2"},
	}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}
	back, err := RestoreState(s, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Visitors(px.ID); !reflect.DeepEqual(got, []uint32{2, 0}) {
		t.Fatalf("restored visitors %v, want [2 0]", got)
	}
	s.Pixels[1].Visitors = []profile.UserID{"dave"}
	if _, err := RestoreState(s, store); err == nil || !strings.Contains(err.Error(), `"px-000002"`) || !strings.Contains(err.Error(), `"dave"`) {
		t.Fatalf("restoring a visitor the store does not hold: %v, want an error naming the pixel and the user", err)
	}
}
