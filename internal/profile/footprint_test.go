//go:build !race

package profile_test

import (
	"runtime"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// TestProfileFootprint is the tripwire on a shard's per-user profile
// memory: the live heap a Store holding the benchmark generator's users
// costs, profiles, attribute sets, PII and the store's own tables together.
// A 128-byte profile with attribute sets of 4-byte ordinals packed to
// length holds it near 390 B/user; the 256-byte profile cost 527, sets of
// 16-byte ID strings 935, and three maps per profile 2 350. Excluded under
// -race, whose shadow memory inflates the heap.
func TestProfileFootprint(t *testing.T) {
	const users = 6000
	cfg := workload.DefaultConfig()
	cfg.Users = users
	cfg.Catalog = attr.DefaultCatalog() // built outside the measurement: it interns the IDs profiles hold
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	store := profile.NewStore()
	workload.Each(cfg, func(p *profile.Profile) {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	})
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(store)
	runtime.KeepAlive(cfg.Catalog)
	perUser := int64(after.HeapAlloc-before.HeapAlloc) / users
	t.Logf("%d B/user", perUser)
	if perUser >= 450 {
		t.Fatalf("store holds %d B/user at %d users, want under 450", perUser, users)
	}
}
