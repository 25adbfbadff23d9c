// Package workload generates the synthetic user populations the
// experiments run against.
//
// The generator substitutes for the two data sources the paper's validation
// used but which are unavailable offline: the platform's real user base and
// the data brokers' coverage of U.S. residents. Its key structural knob is
// broker coverage — the validation's asymmetry (one author received eleven
// partner-attribute Treads, the other none) is explained in the paper by
// the second author being "a graduate student who has only been in the U.S.
// for over a year", i.e. invisible to data brokers. PaperAuthors
// reconstructs exactly that pair; Generate produces whole populations with
// a configurable coverage rate.
package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// Config parameterizes population generation.
type Config struct {
	// Users is the population size.
	Users int
	// BrokerCoverage is the fraction of users data brokers have records
	// for (long-established residents). Covered users receive partner
	// attributes; uncovered users receive none.
	BrokerCoverage float64
	// MeanPlatformAttrs is the mean number of platform-computed
	// attributes per user (geometric-ish spread).
	MeanPlatformAttrs int
	// MeanPartnerAttrs is the mean number of partner attributes for
	// broker-covered users. The paper's validation surfaced 11 for the
	// covered author.
	MeanPartnerAttrs int
	// WithPII attaches a synthetic email and phone number to each user.
	WithPII bool
	// Seed drives all sampling.
	Seed uint64
	// Catalog defaults to attr.DefaultCatalog().
	Catalog *attr.Catalog
	// Skew is the Zipf exponent of the attribute-coverage distribution:
	// attribute i of the pool is drawn with weight 1/(i+1)^Skew, so higher
	// values concentrate the population on the head of the catalog the way
	// real targeting-attribute prevalence concentrates. Zero keeps the
	// legacy quadratic skew (and byte-identical populations for existing
	// seeds); ~1.1 approximates real catalogs at the million-user scale
	// the index benchmarks run.
	Skew float64
}

// DefaultConfig returns the configuration the experiments use unless they
// sweep a parameter: a mid-sized population with realistic coverage.
func DefaultConfig() Config {
	return Config{
		Users:             1000,
		BrokerCoverage:    0.8,
		MeanPlatformAttrs: 25,
		MeanPartnerAttrs:  11,
		WithPII:           true,
		Seed:              1,
	}
}

// usCities are the population's home cities with their coordinates, so
// that radius targeting (footnote 1 of the paper) works on generated
// populations.
var usCities = []struct {
	name     string
	lat, lon float64
}{
	{"New York", 40.7128, -74.0060},
	{"Los Angeles", 34.0522, -118.2437},
	{"Chicago", 41.8781, -87.6298},
	{"Houston", 29.7604, -95.3698},
	{"Phoenix", 33.4484, -112.0740},
	{"Philadelphia", 39.9526, -75.1652},
	{"San Antonio", 29.4241, -98.4936},
	{"San Diego", 32.7157, -117.1611},
	{"Dallas", 32.7767, -96.7970},
	{"Boston", 42.3601, -71.0589},
	{"Seattle", 47.6062, -122.3321},
	{"Denver", 39.7392, -104.9903},
	{"Atlanta", 33.7490, -84.3880},
	{"Miami", 25.7617, -80.1918},
	{"Minneapolis", 44.9778, -93.2650},
}

// Generate produces a deterministic population. The i-th user of a given
// config is identical across runs.
func Generate(cfg Config) []*profile.Profile {
	out := make([]*profile.Profile, 0, cfg.Users)
	Each(cfg, func(p *profile.Profile) { out = append(out, p) })
	return out
}

// zipfWeights precomputes the cumulative Zipf(s) weights over n pool
// indices, for O(log n) sampling by binary search.
func zipfWeights(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return cum
}

// Each streams a deterministic population to fn one profile at a time,
// without materializing the slice — the generator the 1M+ index
// benchmarks use (a million materialized *Profile values would cost
// gigabytes; streaming feeds them straight into the store and its index).
// Each(cfg, ...) visits exactly the profiles Generate(cfg) returns, in
// order.
func Each(cfg Config, fn func(*profile.Profile)) {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = attr.DefaultCatalog()
	}
	rng := stats.NewRNG(cfg.Seed)
	platformAttrs := catalog.BySource(attr.SourcePlatform)
	partnerAttrs := catalog.BySource(attr.SourcePartner)
	var platformCum, partnerCum []float64
	if cfg.Skew > 0 {
		platformCum = zipfWeights(len(platformAttrs), cfg.Skew)
		partnerCum = zipfWeights(len(partnerAttrs), cfg.Skew)
	}

	for i := 0; i < cfg.Users; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		p.Nation = "US"
		city := usCities[rng.Intn(len(usCities))]
		p.City = city.name
		// Scatter users ~±0.2° around their city's center.
		p.SetLocation(city.lat+(rng.Float64()-0.5)*0.4, city.lon+(rng.Float64()-0.5)*0.4)
		p.AgeYrs = 18 + rng.Intn(62)
		if rng.Bool(0.5) {
			p.Sex = "female"
		} else {
			p.Sex = "male"
		}
		if cfg.WithPII {
			p.PII = pii.Record{
				Emails: []string{fmt.Sprintf("user-%06d@example.com", i)},
				Phones: []string{fmt.Sprintf("1617555%04d", i%10000)},
			}
		}
		assignAttrs(p, platformAttrs, cfg.MeanPlatformAttrs, rng, platformCum)
		if rng.Bool(cfg.BrokerCoverage) {
			assignAttrs(p, partnerAttrs, cfg.MeanPartnerAttrs, rng, partnerCum)
		}
		fn(p)
	}
}

// assignAttrs sets approximately mean attributes on p, sampled with a
// popularity skew (low-index catalog attributes are more common, giving
// the long-tailed prevalence distribution real catalogs show). With a nil
// cum the legacy quadratic skew applies; otherwise indices are drawn from
// the precomputed cumulative Zipf weights. Categorical attributes get a
// uniform random value.
func assignAttrs(p *profile.Profile, pool []*attr.Attribute, mean int, rng *stats.RNG, cum []float64) {
	if mean <= 0 || len(pool) == 0 {
		return
	}
	// Geometric-ish count around the mean, capped by the pool.
	n := int(float64(mean) * (0.5 + rng.Float64()))
	if n < 1 {
		n = 1
	}
	if n > len(pool) {
		n = len(pool)
	}
	chosen := make(map[int]bool, n)
	for picked := 0; picked < n; {
		var idx int
		if cum != nil {
			// Zipf draw: invert the cumulative weight table.
			r := rng.Float64() * cum[len(cum)-1]
			idx = sort.SearchFloat64s(cum, r)
		} else {
			// Legacy popularity skew: square the uniform to bias towards
			// the front of the catalog.
			f := rng.Float64()
			idx = int(f * f * float64(len(pool)))
		}
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		if chosen[idx] {
			// Fall back to uniform probing to terminate quickly once
			// the head of the catalog is saturated.
			idx = rng.Intn(len(pool))
			if chosen[idx] {
				continue
			}
		}
		chosen[idx] = true
		a := pool[idx]
		if a.Kind == attr.Categorical {
			p.SetAttrValue(a.ID, a.Values[rng.Intn(len(a.Values))])
		} else {
			p.SetAttr(a.ID)
		}
		picked++
	}
}

// PaperAuthorAttrs lists the eleven partner-attribute names the validation
// revealed for the broker-covered author: "net worth, purchase behavior
// (particular kinds of restaurants purchased at, particular kinds of
// apparel purchased), job role, home type, and the kind of automobile they
// are likely to purchase in the near future" (§3.1). The names below are
// the corresponding entries in the default catalog.
var PaperAuthorAttrs = []string{
	"Net worth: over $2,000,000",
	"Purchases at fine dining restaurants",
	"Purchases at coffee shops",
	"Purchases at ethnic restaurants",
	"Buys luxury apparel",
	"Buys business apparel",
	"Buys footwear",
	"Job role: technology professional",
	"Home type: condominium",
	"In market for: new luxury car",
	"Likely to purchase a vehicle within 90 days",
}

// PaperAuthors reconstructs the validation's two opted-in users against the
// given catalog: authorA is a long-term U.S. resident with exactly the
// eleven broker attributes above; authorB is a recently arrived graduate
// student with no broker record. Both also carry a few platform attributes
// (the validation's control ad reached both).
func PaperAuthors(catalog *attr.Catalog) (authorA, authorB *profile.Profile, err error) {
	if catalog == nil {
		catalog = attr.DefaultCatalog()
	}
	a := profile.New("author-a")
	a.Nation = "US"
	a.City = "Boston"
	a.AgeYrs = 38
	a.Sex = "male"
	a.PII = pii.Record{Emails: []string{"author-a@example.edu"}}
	for _, name := range PaperAuthorAttrs {
		hits := catalog.Search(name)
		if len(hits) == 0 {
			return nil, nil, fmt.Errorf("workload: catalog missing %q", name)
		}
		a.SetAttr(hits[0].ID)
	}
	for _, q := range []string{"Salsa dance", "Jazz", "Running"} {
		if hits := catalog.Search(q); len(hits) > 0 {
			a.SetAttr(hits[0].ID)
		}
	}

	b := profile.New("author-b")
	b.Nation = "US"
	b.City = "Boston"
	b.AgeYrs = 26
	b.Sex = "male"
	b.PII = pii.Record{Emails: []string{"author-b@example.edu"}}
	for _, q := range []string{"Currently in graduate school", "Expats (India)", "Cricket"} {
		if hits := catalog.Search(q); len(hits) > 0 {
			b.SetAttr(hits[0].ID)
		}
	}
	return a, b, nil
}
