package audience_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// world is one complete targeting stack: store, pixels, engine, and the
// audiences created in it. The differential tests build two identical
// worlds — one index-backed, one scan-only — drive them with identical
// mutations, and require byte-identical answers.
type world struct {
	store   *profile.Store
	pixels  *pixel.Registry
	engine  *audience.Engine
	profs   []*profile.Profile
	pii     audience.AudienceID
	look    audience.AudienceID
	engage  audience.AudienceID
	affin   audience.AudienceID
	website audience.AudienceID
	pageID  string
}

// buildWorld generates the population deterministically (so both worlds
// get identical users), then creates one audience of every kind.
func buildWorld(t testing.TB, cfg workload.Config, indexed bool) *world {
	t.Helper()
	w := &world{
		store:  profile.NewStore(),
		pixels: pixel.NewRegistry(),
		pageID: "diff-test-page",
	}
	w.engine = audience.NewEngine(w.store, w.pixels)
	if indexed {
		if err := w.engine.EnableIndex(); err != nil {
			t.Fatalf("EnableIndex: %v", err)
		}
	}
	workload.Each(cfg, func(p *profile.Profile) {
		if err := w.store.Add(p); err != nil {
			t.Fatal(err)
		}
		w.profs = append(w.profs, p)
	})

	// PII audience over every 7th user's match keys.
	piiKeys := w.profs[0].PII.MatchKeys()[:0:0]
	for i := 0; i < len(w.profs); i += 7 {
		piiKeys = append(piiKeys, w.profs[i].PII.MatchKeys()...)
	}
	w.pii = w.engine.CreatePIIAudience("acme", "pii", piiKeys).ID

	// Engagement audience; like its page from every 5th user.
	w.engage = w.engine.CreateEngagementAudience("acme", "fans", w.pageID).ID
	for i := 0; i < len(w.profs); i += 5 {
		w.profs[i].Like(w.pageID)
	}

	// Website audience over a pixel visited by every 3rd user.
	px := w.pixels.Issue("acme")
	for i := 0; i < len(w.profs); i += 3 {
		if err := w.pixels.RecordVisit(px.ID, w.profs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	wa, err := w.engine.CreateWebsiteAudience("acme", "visitors", px.ID)
	if err != nil {
		t.Fatal(err)
	}
	w.website = wa.ID

	// Affinity audience from catalog keyword search.
	aa, err := w.engine.CreateAffinityAudience("acme", "jazz-lovers", []string{"Jazz", "Running"}, attr.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	w.affin = aa.ID

	// Lookalike seeded from the PII audience.
	la, err := w.engine.CreateLookalikeAudience("acme", "lookalike", w.pii, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	w.look = la.ID
	return w
}

// diffSpecs returns the spec matrix the worlds are compared on: every
// audience kind, include/includeAll/exclude combinations, indexable and
// non-indexable expressions.
func (w *world) diffSpecs() []audience.Spec {
	var someAttr attr.ID
	for _, p := range w.profs {
		if as := p.Attrs(); len(as) > 0 {
			someAttr = as[0]
			break
		}
	}
	return []audience.Spec{
		{},
		{Expr: attr.MatchAll{}},
		{Expr: attr.Has{ID: someAttr}},
		{Include: []audience.AudienceID{w.pii}},
		{Include: []audience.AudienceID{w.engage, w.website}},
		{Include: []audience.AudienceID{w.affin}, Expr: attr.AgeBetween{Min: 21, Max: 60}},
		{Include: []audience.AudienceID{w.look}},
		{Include: []audience.AudienceID{w.pii, w.look}, Exclude: []audience.AudienceID{w.engage}},
		{IncludeAll: []audience.AudienceID{w.pii, w.website}},
		{
			Include:    []audience.AudienceID{w.engage, w.affin},
			IncludeAll: []audience.AudienceID{w.website},
			Exclude:    []audience.AudienceID{w.look},
			Expr:       attr.And{Ops: []attr.Expr{attr.GenderIs{Gender: "female"}, attr.Not{Op: attr.RegionIs{Region: "Miami"}}}},
		},
		// Non-indexable: geo radius forces the scan fallback inside the
		// indexed engine; answers must still be identical.
		{Expr: attr.WithinKM{Lat: 42.3601, Lon: -71.0589, KM: 60}},
		{Include: []audience.AudienceID{w.pii}, Expr: attr.WithinKM{Lat: 40.7128, Lon: -74.0060, KM: 100}},
		// Invalid specs: unknown audiences must fail with identical errors.
		{Include: []audience.AudienceID{"aud-9999"}},
		{IncludeAll: []audience.AudienceID{"aud-9999"}},
		{Exclude: []audience.AudienceID{"aud-9999"}},
	}
}

// assertWorldsAgree compares every query surface on every spec.
func assertWorldsAgree(t *testing.T, idxW, scanW *world, stage string) {
	t.Helper()
	specsI, specsS := idxW.diffSpecs(), scanW.diffSpecs()
	for i := range specsI {
		si, ss := specsI[i], specsS[i]

		ci, erri := idxW.engine.CountMatches(si)
		cs, errs := scanW.engine.CountMatches(ss)
		if ci != cs || (erri == nil) != (errs == nil) || (erri != nil && erri.Error() != errs.Error()) {
			t.Fatalf("%s spec %d: CountMatches diverges: indexed=%d,%v scan=%d,%v", stage, i, ci, erri, cs, errs)
		}

		pi, erri := idxW.engine.PotentialReach(si)
		ps, errs := scanW.engine.PotentialReach(ss)
		if pi != ps || (erri == nil) != (errs == nil) {
			t.Fatalf("%s spec %d: PotentialReach diverges: indexed=%d,%v scan=%d,%v", stage, i, pi, erri, ps, errs)
		}

		// Per-user delivery eligibility on a stride of users.
		for u := 0; u < len(idxW.profs); u += 13 {
			mi, erri := idxW.engine.SpecMatches(si, idxW.profs[u])
			ms, errs := scanW.engine.SpecMatches(ss, scanW.profs[u])
			if mi != ms || (erri == nil) != (errs == nil) ||
				(erri != nil && erri.Error() != errs.Error()) {
				t.Fatalf("%s spec %d user %d: SpecMatches diverges: indexed=%v,%v scan=%v,%v",
					stage, i, u, mi, erri, ms, errs)
			}
		}
	}
}

// mutate applies the same mid-test mutations to both worlds: likes,
// unlikes, attribute flips, value changes, and new profile adds.
func mutate(t *testing.T, round string, ws ...*world) {
	t.Helper()
	const newAttr = attr.ID("diff.test.attr")
	for _, w := range ws {
		for i := 0; i < len(w.profs); i += 4 {
			p := w.profs[i]
			switch i % 3 {
			case 0:
				p.Like(w.pageID)
			case 1:
				p.Unlike(w.pageID)
			case 2:
				p.SetAttr(newAttr)
			}
		}
		// Flip a categorical value and set an attribute post-add.
		p := w.profs[1]
		p.SetAttrValue(newAttr, "v1")
		p.SetAttrValue(newAttr, "v2")
		w.profs[2].SetAttr(newAttr)

		// Late adds flow through the watcher on the indexed side.
		for i := 0; i < 10; i++ {
			np := profile.New(profile.UserID(fmt.Sprintf("late-%s-%03d", round, i)))
			np.Nation = "US"
			np.City = "Boston"
			np.AgeYrs = 30 + i
			np.Sex = "female"
			np.SetAttr(newAttr)
			if err := w.store.Add(np); err != nil {
				t.Fatal(err)
			}
			w.profs = append(w.profs, np)
		}
	}
}

func TestIndexEngineMatchesScanEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  workload.Config
	}{
		{"small-legacy", workload.Config{Users: 150, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, WithPII: true, Seed: 1}},
		{"mid-zipf", workload.Config{Users: 600, BrokerCoverage: 0.6, MeanPlatformAttrs: 15, MeanPartnerAttrs: 8, WithPII: true, Seed: 99, Skew: 1.1}},
		{"sparse", workload.Config{Users: 64, BrokerCoverage: 0.2, MeanPlatformAttrs: 3, MeanPartnerAttrs: 2, WithPII: true, Seed: 7, Skew: 2.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idxW := buildWorld(t, tc.cfg, true)
			scanW := buildWorld(t, tc.cfg, false)
			assertWorldsAgree(t, idxW, scanW, "initial")
			mutate(t, "r1", idxW, scanW)
			assertWorldsAgree(t, idxW, scanW, "post-mutation")
		})
	}
}

// TestEnableIndexLateMatchesScan enables the index only after the world is
// fully built and mutated — the replay-based bulk build must land in the
// same state as incremental maintenance.
func TestEnableIndexLateMatchesScan(t *testing.T) {
	cfg := workload.Config{Users: 200, BrokerCoverage: 0.8, MeanPlatformAttrs: 25, MeanPartnerAttrs: 11, WithPII: true, Seed: 1}
	lateW := buildWorld(t, cfg, false)
	scanW := buildWorld(t, cfg, false)
	mutate(t, "r1", lateW, scanW)
	if err := lateW.engine.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	assertWorldsAgree(t, lateW, scanW, "late-enable")
	mutate(t, "r2", lateW, scanW)
	assertWorldsAgree(t, lateW, scanW, "late-enable-post-mutation")
}

var fuzzWorlds struct {
	once sync.Once
	idx  *world
	scan *world
}

// FuzzIndexEquivalence fuzzes targeting expressions (seeded from the shared
// attr corpus) through both engines and requires identical reach counts and
// per-user eligibility. It is the grammar-directed complement of the
// table-driven differential above.
func FuzzIndexEquivalence(f *testing.F) {
	for _, seed := range attr.ExprCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := attr.Parse(input)
		if err != nil {
			return // rejected inputs are FuzzParse's concern
		}
		fuzzWorlds.once.Do(func() {
			cfg := workload.Config{Users: 300, BrokerCoverage: 0.7, MeanPlatformAttrs: 18, MeanPartnerAttrs: 9, WithPII: true, Seed: 11, Skew: 1.1}
			fuzzWorlds.idx = buildWorld(t, cfg, true)
			fuzzWorlds.scan = buildWorld(t, cfg, false)
		})
		idxW, scanW := fuzzWorlds.idx, fuzzWorlds.scan
		specs := []audience.Spec{
			{Expr: e},
			{Include: []audience.AudienceID{idxW.engage}, Exclude: []audience.AudienceID{idxW.website}, Expr: e},
		}
		scanSpecs := []audience.Spec{
			{Expr: e},
			{Include: []audience.AudienceID{scanW.engage}, Exclude: []audience.AudienceID{scanW.website}, Expr: e},
		}
		for i := range specs {
			ci, erri := idxW.engine.CountMatches(specs[i])
			cs, errs := scanW.engine.CountMatches(scanSpecs[i])
			if ci != cs || (erri == nil) != (errs == nil) {
				t.Fatalf("CountMatches diverges on %q: indexed=%d,%v scan=%d,%v", input, ci, erri, cs, errs)
			}
			for u := 0; u < len(idxW.profs); u += 29 {
				mi, erri := idxW.engine.SpecMatches(specs[i], idxW.profs[u])
				ms, errs := scanW.engine.SpecMatches(scanSpecs[i], scanW.profs[u])
				if mi != ms || (erri == nil) != (errs == nil) {
					t.Fatalf("SpecMatches diverges on %q user %d: indexed=%v,%v scan=%v,%v", input, u, mi, erri, ms, errs)
				}
			}
		}
	})
}
