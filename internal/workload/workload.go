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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

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
func Each(cfg Config, fn func(*profile.Profile)) { EachKept(cfg, nil, fn) }

// EachKept streams the profiles of Each(cfg) whose user ID keep accepts, in
// the same order; a nil keep accepts every user. Every user is drawn, so the
// random stream and each kept profile are exactly Each's, but only the kept
// users are built — the cost a shard booting its slice of the population
// saves on the users other slots hold.
//
// The work runs in two stages at once. One helper goroutine draws every user
// and builds the kept ones (keep runs there, so it must be safe to call from
// another goroutine); it hands the profiles in batches of batchSize over a
// channel that holds batchDepth of them to the caller's goroutine, which
// runs fn. So fn is called on the caller's goroutine, once per kept profile,
// in generation order, and no call overlaps another: a boot that adds users
// in fn adds them in the same order into the same slots as a one-goroutine
// loop would. A process booting its population spends most of its start-up
// in this loop; with two cores it takes about as long as the slower stage
// instead of the sum of both. The helper never outlives EachKept, also when
// fn panics; a panic on the helper (in keep, or in building a profile) is
// raised again on the caller's goroutine.
func EachKept(cfg Config, keep func(profile.UserID) bool, fn func(*profile.Profile)) {
	batches := make(chan []*profile.Profile, batchDepth)
	stop := make(chan struct{})
	var failure any // written before batches is closed
	go func() {
		defer close(batches)
		defer func() { failure = recover() }()
		send := func(batch []*profile.Profile) bool {
			select {
			case batches <- batch:
				return true
			case <-stop:
				return false
			}
		}
		g := newGenerator(cfg)
		var d draw
		batch := make([]*profile.Profile, 0, batchSize)
		for i := 0; i < cfg.Users; i++ {
			g.draw(i, &d)
			if keep != nil && !keep(d.id) {
				continue
			}
			if batch = append(batch, g.build(&d)); len(batch) == batchSize {
				if !send(batch) {
					return
				}
				batch = make([]*profile.Profile, 0, batchSize)
			}
		}
		if len(batch) > 0 {
			send(batch)
		}
	}()
	defer func() {
		close(stop)
		for range batches { // until the helper is done
		}
	}()
	for batch := range batches {
		for _, p := range batch {
			fn(p)
		}
	}
	if failure != nil {
		panic(failure)
	}
}

// KeptUsers returns how many profiles EachKept(cfg, keep, fn) passes to fn,
// found from the user IDs alone: nothing is drawn or built. A nil keep
// accepts every user.
func KeptUsers(cfg Config, keep func(profile.UserID) bool) int {
	if keep == nil {
		return max(cfg.Users, 0)
	}
	n := 0
	var id []byte
	for i := 0; i < cfg.Users; i++ {
		id = appendPadded(id[:0], userPrefix, i, userDigits)
		if keep(profile.UserID(id)) {
			n++
		}
	}
	return n
}

// User i's ID is userPrefix followed by i zero-padded to userDigits digits.
const (
	userPrefix = "user-"
	userDigits = 6
)

// The pipeline's shape: profiles per hand-over, and hand-overs the channel
// holds. A batch amortizes the channel's synchronization over a few hundred
// users; the depth lets the builder run a few batches ahead of fn.
const (
	batchSize  = 256
	batchDepth = 4
)

// generator holds what every user of one population is drawn and built
// from: the random stream, the two attribute pools, and scratch reused
// from one user to the next.
type generator struct {
	cfg               Config
	rng               *stats.RNG
	platform, partner pool
	// byRank lists both pools' attributes in ID order; a pick names its
	// attribute by position here, so walking ranks upwards walks IDs in order.
	byRank []*attr.Attribute
	// Build scratch: picked is a bitset over ranks, value[r] the low half of
	// rank r's pick, while build walks them.
	picked []uint64
	value  []uint32
	binary []attr.Ord           // build scratch
	values []profile.ValuedAttr // build scratch
	text   []byte               // draw and build scratch for formatted strings
}

// pool is one attribute source as the draws see it.
type pool struct {
	attrs []*attr.Attribute // catalog order: what a draw's index picks
	rank  []pick            // rank[i] is attrs[i]'s position in generator.byRank
	cum   []float64         // cumulative Zipf weights; nil for the legacy skew
	// seen[i] == stamp marks attrs[i] as picked for the user being drawn, so
	// no per-user set is allocated or cleared.
	seen []int
}

// draw is everything the random stream decides about one user, and the
// user's ID. The PII is a function of the index alone and draws nothing.
type draw struct {
	i        int
	id       profile.UserID
	email    string // with PII, the ID is its front: one string holds both
	city     int
	lat, lon float64
	age      uint8
	female   bool
	picks    []pick // both pools' attributes, in draw order
}

// pick is one drawn attribute: its rank in ID order in the high 32 bits and,
// for a categorical attribute, its drawn value's index plus one in the low
// 32 (0 for a binary attribute).
type pick uint64

func newGenerator(cfg Config) *generator {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = attr.DefaultCatalog()
	}
	g := &generator{
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		platform: pool{attrs: catalog.BySource(attr.SourcePlatform)},
		partner:  pool{attrs: catalog.BySource(attr.SourcePartner)},
	}
	g.byRank = append(slices.Clone(g.platform.attrs), g.partner.attrs...)
	slices.SortFunc(g.byRank, func(a, b *attr.Attribute) int { return cmp.Compare(a.ID, b.ID) })
	g.picked = make([]uint64, (len(g.byRank)+63)/64)
	g.value = make([]uint32, len(g.byRank))
	rank := make(map[attr.ID]pick, len(g.byRank))
	for r, a := range g.byRank {
		rank[a.ID] = pick(r)
	}
	for _, pl := range []*pool{&g.platform, &g.partner} {
		pl.rank = make([]pick, len(pl.attrs))
		for i, a := range pl.attrs {
			pl.rank[i] = rank[a.ID]
		}
		pl.seen = make([]int, len(pl.attrs))
		if cfg.Skew > 0 {
			pl.cum = zipfWeights(len(pl.attrs), cfg.Skew)
		}
	}
	return g
}

// draw fills d with user i's draws, taking from the random stream exactly
// what building the user takes, in the same order, whether or not the user
// is then built.
func (g *generator) draw(i int, d *draw) {
	rng := g.rng
	d.i = i
	g.text = appendPadded(g.text[:0], userPrefix, i, userDigits)
	n := len(g.text)
	if g.cfg.WithPII {
		g.text = append(g.text, "@example.com"...)
	}
	d.email = string(g.text)
	d.id = profile.UserID(d.email[:n])
	d.city = rng.Intn(len(usCities))
	city := usCities[d.city]
	// Scatter users ~±0.2° around their city's center.
	d.lat = city.lat + (rng.Float64()-0.5)*0.4
	d.lon = city.lon + (rng.Float64()-0.5)*0.4
	d.age = uint8(18 + rng.Intn(62))
	d.female = rng.Bool(0.5)
	stamp := i + 1 // seen starts zeroed
	d.picks = g.platform.drawAttrs(d.picks[:0], g.cfg.MeanPlatformAttrs, rng, stamp)
	if rng.Bool(g.cfg.BrokerCoverage) {
		d.picks = g.partner.drawAttrs(d.picks, g.cfg.MeanPartnerAttrs, rng, stamp)
	}
}

// build makes the profile of a drawn user.
func (g *generator) build(d *draw) *profile.Profile {
	p := profile.New(d.id)
	p.SetCountry("US")
	p.SetRegion(usCities[d.city].name)
	p.SetLocation(d.lat, d.lon)
	p.AgeYrs = d.age
	p.Sex = "male"
	if d.female {
		p.Sex = "female"
	}
	if g.cfg.WithPII {
		// The email is the string the ID was cut from, and SetPII copies
		// both lists into one backing array: two allocations with the phone.
		p.SetPII(pii.Record{Emails: []string{d.email}, Phones: []string{g.padded("1617555", d.i%10000, 4)}})
	}
	// Mark each pick's rank, then take the ranks in order: the attributes in
	// ID order, with no sort.
	for _, pk := range d.picks {
		r := pk >> 32
		g.picked[r/64] |= 1 << (r % 64)
		g.value[r] = uint32(pk)
	}
	g.binary, g.values = g.binary[:0], g.values[:0]
	for w, word := range g.picked {
		for ; word != 0; word &= word - 1 {
			r := w*64 + bits.TrailingZeros64(word)
			a := g.byRank[r]
			if value := g.value[r]; value == 0 {
				g.binary = append(g.binary, a.Ord())
			} else {
				g.values = append(g.values, profile.ValuedAttr{Ord: a.Ord(), Value: a.Values[value-1]})
			}
		}
		g.picked[w] = 0
	}
	p.SetSortedAttrs(g.binary, g.values)
	return p
}

// padded returns prefix followed by n (not negative) zero-padded to width
// digits: fmt.Sprintf(prefix+"%0*d", width, n), formatted in g's scratch.
func (g *generator) padded(prefix string, n, width int) string {
	g.text = appendPadded(g.text[:0], prefix, n, width)
	return string(g.text)
}

// appendPadded appends prefix followed by n (not negative) zero-padded to
// width digits to dst.
func appendPadded(dst []byte, prefix string, n, width int) []byte {
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(n), 10)
	dst = append(dst, prefix...)
	for k := len(num); k < width; k++ {
		dst = append(dst, '0')
	}
	return append(dst, num...)
}

// drawAttrs appends approximately mean attribute picks from the pool,
// sampled with a popularity skew (low-index catalog attributes are more
// common, giving the long-tailed prevalence distribution real catalogs
// show). With a nil cum the legacy quadratic skew applies; otherwise indices
// are drawn from the precomputed cumulative Zipf weights. Categorical
// attributes get a uniform random value.
func (pl *pool) drawAttrs(picks []pick, mean int, rng *stats.RNG, stamp int) []pick {
	if mean <= 0 || len(pl.attrs) == 0 {
		return picks
	}
	// Geometric-ish count around the mean, capped by the pool.
	n := int(float64(mean) * (0.5 + rng.Float64()))
	if n < 1 {
		n = 1
	}
	if n > len(pl.attrs) {
		n = len(pl.attrs)
	}
	for picked := 0; picked < n; {
		var idx int
		if pl.cum != nil {
			// Zipf draw: invert the cumulative weight table.
			r := rng.Float64() * pl.cum[len(pl.cum)-1]
			idx = sort.SearchFloat64s(pl.cum, r)
		} else {
			// Legacy popularity skew: square the uniform to bias towards
			// the front of the catalog.
			f := rng.Float64()
			idx = int(f * f * float64(len(pl.attrs)))
		}
		if idx >= len(pl.attrs) {
			idx = len(pl.attrs) - 1
		}
		if pl.seen[idx] == stamp {
			// Fall back to uniform probing to terminate quickly once
			// the head of the catalog is saturated.
			idx = rng.Intn(len(pl.attrs))
			if pl.seen[idx] == stamp {
				continue
			}
		}
		pl.seen[idx] = stamp
		pk := pl.rank[idx] << 32
		if a := pl.attrs[idx]; a.Kind == attr.Categorical {
			pk |= pick(rng.Intn(len(a.Values)) + 1)
		}
		picks = append(picks, pk)
		picked++
	}
	return picks
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
	a.SetCountry("US")
	a.SetRegion("Boston")
	a.AgeYrs = 38
	a.Sex = "male"
	a.SetPII(pii.Record{Emails: []string{"author-a@example.edu"}})
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
	b.SetCountry("US")
	b.SetRegion("Boston")
	b.AgeYrs = 26
	b.Sex = "male"
	b.SetPII(pii.Record{Emails: []string{"author-b@example.edu"}})
	for _, q := range []string{"Currently in graduate school", "Expats (India)", "Cricket"} {
		if hits := catalog.Search(q); len(hits) > 0 {
			b.SetAttr(hits[0].ID)
		}
	}
	return a, b, nil
}
