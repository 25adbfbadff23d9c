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
// Sorted attribute slices packed to length hold it near 1 250 B/user; three
// maps per profile cost 2 350. Excluded under -race, whose shadow memory
// inflates the heap.
func TestProfileFootprint(t *testing.T) {
	const users = 6000
	cfg := workload.DefaultConfig()
	cfg.Users = users
	cfg.Catalog = attr.DefaultCatalog() // built outside the measurement: profiles share its ID strings
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
	if perUser >= 1500 {
		t.Fatalf("store holds %d B/user at %d users, want under 1500", perUser, users)
	}
}
