package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"slices"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/profile"
)

// populationDigest is the SHA-256 of the snapshot JSON of every profile
// Each(DefaultConfig()) yields at 2 000 users with seed 5, recorded before
// profiles stored their attributes as sorted slices instead of maps.
const populationDigest = "436caa0d68c1bf86d696f1792febb8929abdb8c7aedf9fb8582c0c41fac6aff6"

// TestGeneratedPopulationDigest holds the generator's draws and the profile
// snapshot bytes fixed: a change to either changes every journal, snapshot
// and benchmark population built from a seed. Both encoders are hashed:
// json.Marshal of each Snapshot, and AppendSnapshotJSON, which compaction
// uses.
func TestGeneratedPopulationDigest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 2000
	cfg.Seed = 5
	marshalled, appended := sha256.New(), sha256.New()
	Each(cfg, func(p *profile.Profile) {
		b, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		marshalled.Write(b)
		appended.Write(p.AppendSnapshotJSON(nil))
	})
	for name, h := range map[string]hash.Hash{"json.Marshal": marshalled, "AppendSnapshotJSON": appended} {
		if got := hex.EncodeToString(h.Sum(nil)); got != populationDigest {
			t.Errorf("population digest through %s = %s, want %s", name, got, populationDigest)
		}
	}
}

// TestEachKeptBuildsTheSameUsers: a shard that builds only the users its
// ring slot keeps gets, byte for byte and in the same order, the profiles
// it would keep from the whole generated population.
func TestEachKeptBuildsTheSameUsers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 600
	cfg.Seed = 7
	snapshot := func(p *profile.Profile) string {
		b, err := json.Marshal(p.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var all []string
	var ids []profile.UserID
	Each(cfg, func(p *profile.Profile) {
		all = append(all, snapshot(p))
		ids = append(ids, p.ID)
	})
	for _, slots := range []int{1, 2, 3} {
		ring := cluster.NewRing(slots, 0)
		for slot := 0; slot < slots; slot++ {
			keep := func(u profile.UserID) bool { return ring.Owner(string(u)) == slot }
			var want, got []string
			for i, id := range ids {
				if keep(id) {
					want = append(want, all[i])
				}
			}
			EachKept(cfg, keep, func(p *profile.Profile) { got = append(got, snapshot(p)) })
			if len(got) == 0 || !slices.Equal(got, want) {
				t.Fatalf("slot %d of %d: built %d users, want the %d filtered ones byte-identical and in order", slot, slots, len(got), len(want))
			}
		}
	}
}

func countBySource(catalog *attr.Catalog, p *profile.Profile) (plat, part int) {
	for _, id := range p.Attrs() {
		a := catalog.Get(id)
		if a == nil {
			continue
		}
		if a.Source == attr.SourcePartner {
			part++
		} else {
			plat++
		}
	}
	return plat, part
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 50
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("sizes differ")
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].AgeYrs != b[i].AgeYrs || a[i].City != b[i].City {
			t.Fatalf("user %d differs between runs", i)
		}
		aa, bb := a[i].Attrs(), b[i].Attrs()
		if len(aa) != len(bb) {
			t.Fatalf("user %d attr count differs", i)
		}
		for j := range aa {
			if aa[j] != bb[j] {
				t.Fatalf("user %d attrs differ", i)
			}
		}
	}
}

func TestGenerateSeedsProduceDifferentPopulations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 50
	a := Generate(cfg)
	cfg.Seed = 2
	b := Generate(cfg)
	same := 0
	for i := range a {
		if a[i].AgeYrs == b[i].AgeYrs {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical demographics")
	}
}

func TestGenerateBrokerCoverage(t *testing.T) {
	catalog := attr.DefaultCatalog()
	cfg := DefaultConfig()
	cfg.Users = 500
	cfg.Catalog = catalog
	pop := Generate(cfg)
	covered := 0
	for _, p := range pop {
		_, part := countBySource(catalog, p)
		if part > 0 {
			covered++
		}
	}
	frac := float64(covered) / float64(len(pop))
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("broker coverage = %v, want ~0.8", frac)
	}
}

func TestGenerateZeroCoverage(t *testing.T) {
	catalog := attr.DefaultCatalog()
	cfg := DefaultConfig()
	cfg.Users = 100
	cfg.BrokerCoverage = 0
	cfg.Catalog = catalog
	for _, p := range Generate(cfg) {
		if _, part := countBySource(catalog, p); part != 0 {
			t.Fatalf("user %s has partner attrs despite zero coverage", p.ID)
		}
	}
}

func TestGenerateAttrCountsNearMean(t *testing.T) {
	catalog := attr.DefaultCatalog()
	cfg := DefaultConfig()
	cfg.Users = 300
	cfg.BrokerCoverage = 1
	cfg.Catalog = catalog
	var platSum, partSum int
	for _, p := range Generate(cfg) {
		plat, part := countBySource(catalog, p)
		platSum += plat
		partSum += part
		if part == 0 {
			t.Fatal("fully covered population has a user without partner attrs")
		}
	}
	platMean := float64(platSum) / float64(cfg.Users)
	partMean := float64(partSum) / float64(cfg.Users)
	if platMean < float64(cfg.MeanPlatformAttrs)*0.7 || platMean > float64(cfg.MeanPlatformAttrs)*1.3 {
		t.Errorf("platform attr mean = %v, want ~%d", platMean, cfg.MeanPlatformAttrs)
	}
	if partMean < float64(cfg.MeanPartnerAttrs)*0.7 || partMean > float64(cfg.MeanPartnerAttrs)*1.3 {
		t.Errorf("partner attr mean = %v, want ~%d", partMean, cfg.MeanPartnerAttrs)
	}
}

func TestGeneratePrevalenceSkew(t *testing.T) {
	// The sampler biases towards the front of the catalog: the first
	// decile of platform attributes should be far more prevalent than the
	// last decile.
	catalog := attr.DefaultCatalog()
	cfg := DefaultConfig()
	cfg.Users = 400
	cfg.Catalog = catalog
	pop := Generate(cfg)
	plat := catalog.BySource(attr.SourcePlatform)
	headCount, tailCount := 0, 0
	head := plat[:len(plat)/10]
	tail := plat[len(plat)-len(plat)/10:]
	for _, p := range pop {
		for _, a := range head {
			if p.HasAttr(a.ID) {
				headCount++
			}
		}
		for _, a := range tail {
			if p.HasAttr(a.ID) {
				tailCount++
			}
		}
	}
	if headCount <= tailCount*2 {
		t.Fatalf("no popularity skew: head=%d tail=%d", headCount, tailCount)
	}
}

func TestGeneratePII(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 10
	for _, p := range Generate(cfg) {
		if len(p.PII.MatchKeys()) < 2 {
			t.Fatalf("user %s missing PII keys", p.ID)
		}
	}
	cfg.WithPII = false
	for _, p := range Generate(cfg) {
		if len(p.PII.MatchKeys()) != 0 {
			t.Fatalf("user %s has PII despite WithPII=false", p.ID)
		}
	}
}

func TestGenerateDemographicsValid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 200
	for _, p := range Generate(cfg) {
		if p.AgeYrs < 18 || p.AgeYrs > 79 {
			t.Fatalf("age %d out of range", p.AgeYrs)
		}
		if p.Sex != "male" && p.Sex != "female" {
			t.Fatalf("gender %q", p.Sex)
		}
		if p.Nation != "US" || p.City == "" {
			t.Fatalf("location %q/%q", p.Nation, p.City)
		}
	}
}

func TestPaperAuthors(t *testing.T) {
	catalog := attr.DefaultCatalog()
	a, b, err := PaperAuthors(catalog)
	if err != nil {
		t.Fatal(err)
	}
	_, aPart := countBySource(catalog, a)
	if aPart != len(PaperAuthorAttrs) {
		t.Fatalf("author A has %d partner attrs, want %d", aPart, len(PaperAuthorAttrs))
	}
	if aPart != 11 {
		t.Fatalf("the paper revealed 11 attributes; fixture has %d", aPart)
	}
	_, bPart := countBySource(catalog, b)
	if bPart != 0 {
		t.Fatalf("author B has %d partner attrs, want 0 (no broker record)", bPart)
	}
	// Both are reachable (have profiles + PII for opt-in).
	if len(a.PII.MatchKeys()) == 0 || len(b.PII.MatchKeys()) == 0 {
		t.Fatal("authors missing opt-in PII")
	}
	// Net worth (Figure 1) is among A's attributes.
	networth := catalog.Search("Net worth: over $2,000,000")[0].ID
	if !a.HasAttr(networth) {
		t.Fatal("author A missing the Figure 1 net-worth attribute")
	}
}

func TestPaperAuthorsNilCatalog(t *testing.T) {
	if _, _, err := PaperAuthors(nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateLocations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 100
	for _, p := range Generate(cfg) {
		lat, lon, ok := p.LatLon()
		if !ok {
			t.Fatalf("user %s has no coordinates", p.ID)
		}
		if lat < 24 || lat > 49 || lon < -125 || lon > -66 {
			t.Fatalf("user %s located outside the continental US: %v,%v", p.ID, lat, lon)
		}
	}
}

func TestGenerateLocationsNearHomeCity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 200
	for _, p := range Generate(cfg) {
		var cityLat, cityLon float64
		found := false
		for _, c := range usCities {
			if c.name == p.City {
				cityLat, cityLon = c.lat, c.lon
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("unknown city %q", p.City)
		}
		lat, lon, _ := p.LatLon()
		if d := attr.HaversineKM(cityLat, cityLon, lat, lon); d > 50 {
			t.Fatalf("user %s is %v km from their home city %s", p.ID, d, p.City)
		}
	}
}
