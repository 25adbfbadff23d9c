//go:build !race

package platform

import (
	"runtime"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// TestUserTablesFootprint is the tripwire on the per-user rows a node keeps
// beside its profile store, for the two tables whose rows are a user's alone:
// delivery's user records and a pixel's visitors. 6 000 generated users, in
// a fixed shuffled order, each browse no slots, which makes the user's
// delivery record and nothing else, then each fire one pixel. A record
// grows the heap by 57 B/user: a 56-byte slot in a table indexed by the
// user's store ordinal, whose capacity stops at the population. A visitor
// costs 5.0 B: a 4-byte ordinal in the first-visit log, with the log's
// growth slack, and a bit. On a second node only a cohort browses, the
// 1 000 users with the lowest ordinals, as on a shard of treads_cluster,
// whose opted-in users are the first generated: a record costs 74 B per
// cohort user there, the table's growth slack included. Keyed by user ID,
// a record cost 100 B/user, 119 per cohort user, and a visitor 54 B. The
// bounds are 15 % over the three figures; the test measures, it does not
// ask for less. Excluded under -race, whose shadow memory inflates the
// heap.
func TestUserTablesFootprint(t *testing.T) {
	const users, cohort = 6000, 1000
	node := func() (*Platform, []profile.UserID, pixel.PixelID) {
		p := New(Config{Seed: 1, Users: users})
		cfg := workload.DefaultConfig()
		cfg.Users = users
		cfg.Catalog = attr.DefaultCatalog()
		var uids []profile.UserID
		workload.Each(cfg, func(u *profile.Profile) {
			if err := p.AddUser(u); err != nil {
				t.Fatal(err)
			}
			uids = append(uids, u.ID)
		})
		if err := p.RegisterAdvertiser("adv"); err != nil {
			t.Fatal(err)
		}
		px, err := p.IssuePixel("adv")
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(1)
		for _, part := range [][]profile.UserID{uids[:cohort], uids[cohort:]} { // the cohort stays first
			for i := len(part) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				part[i], part[j] = part[j], part[i]
			}
		}
		return p, uids, px
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	perUser := func(uids []profile.UserID, op func(profile.UserID) error) float64 {
		before := heap()
		for _, uid := range uids {
			if err := op(uid); err != nil {
				t.Fatal(err)
			}
		}
		grown := float64(int64(heap()) - int64(before))
		runtime.KeepAlive(uids)
		return grown / float64(len(uids))
	}
	browse := func(p *Platform) func(profile.UserID) error {
		return func(uid profile.UserID) error {
			_, err := p.BrowseFeed(uid, 0)
			return err
		}
	}

	p, uids, px := node()
	record := perUser(uids, browse(p))
	visitor := perUser(uids, func(uid profile.UserID) error { return p.VisitPage(uid, px) })
	runtime.KeepAlive(p)
	p, uids, _ = node()
	cohortRecord := perUser(uids[:cohort], browse(p))
	runtime.KeepAlive(p)
	t.Logf("%.1f B/user of delivery records, %.1f B/user of pixel visitors, %.1f B per cohort user of delivery records", record, visitor, cohortRecord)
	if record >= 66 || visitor >= 5.8 || cohortRecord >= 85 {
		t.Fatalf("at %d users a delivery record costs %.1f B and a pixel visitor %.1f B, and a record %.1f B per user of a %d-user cohort, want under 66, 5.8 and 85",
			users, record, visitor, cohortRecord, cohort)
	}
}
