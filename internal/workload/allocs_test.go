//go:build !race

package workload

import (
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

var sinkProfile *profile.Profile

// TestGenerateAllocsPerUser is the tripwire on the generator's allocations,
// which a shard pays per user at boot: the formatted ID and PII strings, the
// profile, its PII slices and its two attribute sets, each allocated once —
// 9.7 per user; a sorted insert per attribute and a set per pool cost 19.8.
// Excluded under -race, which allocates on its own.
func TestGenerateAllocsPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultConfig()
	cfg.Users = users
	cfg.Catalog = attr.DefaultCatalog()
	perUser := testing.AllocsPerRun(3, func() {
		Each(cfg, func(p *profile.Profile) { sinkProfile = p })
	}) / users
	t.Logf("%.2f allocs/user", perUser)
	if perUser > 10 {
		t.Fatalf("generating %d users costs %.2f allocs/user, want at most 10", users, perUser)
	}
}
