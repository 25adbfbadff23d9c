package pixel

import (
	"fmt"
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
	if err := r.RecordVisit(p.ID, "u1"); err != nil {
		t.Fatal(err)
	}
	if err := r.RecordVisit(p.ID, "u2"); err != nil {
		t.Fatal(err)
	}
	// Repeat visits are idempotent.
	if err := r.RecordVisit(p.ID, "u1"); err != nil {
		t.Fatal(err)
	}
	got := r.Visitors(p.ID)
	if len(got) != 2 || got[0] != "u1" || got[1] != "u2" {
		t.Fatalf("Visitors = %v", got)
	}
	if len(r.Visitors(p.ID)) != 2 {
		t.Fatalf("VisitorCount = %d", len(r.Visitors(p.ID)))
	}
	if !r.HasVisited(p.ID, "u1") || r.HasVisited(p.ID, "u3") {
		t.Error("HasVisited wrong")
	}
}

func TestRecordVisitUnknownPixel(t *testing.T) {
	r := NewRegistry()
	if err := r.RecordVisit("px-nope", "u1"); err == nil {
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
	if err := r.RecordVisit(p1.ID, "u1"); err != nil {
		t.Fatal(err)
	}
	if r.HasVisited(p2.ID, "u1") {
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
				uid := profile.UserID(fmt.Sprintf("u%d", i))
				if err := r.RecordVisit(p.ID, uid); err != nil {
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
