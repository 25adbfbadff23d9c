//go:build !race

package workload

import (
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

var sinkProfile *profile.Profile

// TestGenerateAllocsPerUser is the tripwire on the generator's allocations,
// which a shard pays per user at boot: the ID and PII strings, the profile,
// its PII slices and its two attribute sets, each allocated once — 7.1 per
// user. Excluded under -race, which allocates on its own.
func TestGenerateAllocsPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultConfig()
	cfg.Users = users
	cfg.Catalog = attr.DefaultCatalog()
	perUser := testing.AllocsPerRun(3, func() {
		Each(cfg, func(p *profile.Profile) { sinkProfile = p })
	}) / users
	t.Logf("%.2f allocs/user", perUser)
	if perUser > 7.5 {
		t.Fatalf("generating %d users costs %.2f allocs/user, want at most 7.5", users, perUser)
	}
}
