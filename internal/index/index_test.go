package index_test

import (
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/index"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// population builds a deterministic generated population and an index over
// it, returning both.
func population(t testing.TB, users int, skew float64) ([]*profile.Profile, *index.Index) {
	t.Helper()
	profs := workload.Generate(workload.Config{
		Users:             users,
		BrokerCoverage:    0.8,
		MeanPlatformAttrs: 25,
		MeanPartnerAttrs:  11,
		Seed:              7,
		Skew:              skew,
	})
	idx := index.New(index.Options{SizeHint: users})
	for _, p := range profs {
		if err := idx.Add(p); err != nil {
			t.Fatalf("Add(%s): %v", p.ID, err)
		}
	}
	return profs, idx
}

// profiles is a population as the index.Source VerifyExpr scans.
type profiles []*profile.Profile

func (ps profiles) Each(fn func(*profile.Profile)) {
	for _, p := range ps {
		fn(p)
	}
}

// scanCount is the ground truth: a linear scan over the live profiles.
func scanCount(profs []*profile.Profile, e attr.Expr) int {
	n := 0
	for _, p := range profs {
		if e.Match(p) {
			n++
		}
	}
	return n
}

// testExprs returns expressions exercising every indexable operator against
// attributes that actually occur in generated populations.
func testExprs(profs []*profile.Profile) []attr.Expr {
	// Harvest a few real attribute IDs and one categorical value.
	var ids []attr.ID
	var catID attr.ID
	var catVal string
	seen := map[attr.ID]bool{}
	for _, p := range profs {
		for _, id := range p.Attrs() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
				if v, ok := p.AttrValue(id); ok && catID == "" {
					catID, catVal = id, v
				}
			}
			if len(ids) >= 6 && catID != "" {
				break
			}
		}
		if len(ids) >= 6 && catID != "" {
			break
		}
	}
	exprs := []attr.Expr{
		attr.MatchAll{},
		attr.Has{ID: ids[0]},
		attr.Has{ID: "no.such.attribute"},
		attr.Not{Op: attr.Has{ID: ids[1]}},
		attr.And{Ops: []attr.Expr{attr.Has{ID: ids[0]}, attr.Has{ID: ids[2]}}},
		attr.Or{Ops: []attr.Expr{attr.Has{ID: ids[3]}, attr.Has{ID: ids[4]}}},
		attr.And{Ops: []attr.Expr{
			attr.Or{Ops: []attr.Expr{attr.Has{ID: ids[0]}, attr.Has{ID: ids[1]}}},
			attr.Not{Op: attr.Has{ID: ids[5]}},
		}},
		attr.AgeBetween{Min: 25, Max: 40},
		attr.GenderIs{Gender: "female"},
		attr.CountryIs{Country: "US"},
		attr.RegionIs{Region: "Boston"},
		attr.And{Ops: []attr.Expr{
			attr.AgeBetween{Min: 18, Max: 65},
			attr.GenderIs{Gender: "male"},
			attr.Not{Op: attr.RegionIs{Region: "Miami"}},
		}},
	}
	if catID != "" {
		exprs = append(exprs, attr.ValueIs{ID: catID, Value: catVal})
	}
	return exprs
}

func TestCountMatchesLinearScan(t *testing.T) {
	profs, idx := population(t, 500, 0)
	for i, e := range testExprs(profs) {
		node, ok := idx.CompileExpr(e)
		if !ok {
			t.Fatalf("expr %d did not compile", i)
		}
		got, want := idx.CountNode(node), scanCount(profs, e)
		if got != want {
			t.Errorf("expr %d (%v): index count %d, scan count %d", i, e, got, want)
		}
		// The self-check must agree too.
		bc, sc, err := idx.VerifyExpr(e, profiles(profs))
		if err != nil {
			t.Fatalf("VerifyExpr expr %d: %v", i, err)
		}
		if bc != want || sc != want {
			t.Errorf("expr %d: VerifyExpr bitmap=%d scan=%d, want %d", i, bc, sc, want)
		}
	}
}

func TestZipfSkewPopulationsIndexIdentically(t *testing.T) {
	profs, idx := population(t, 400, 1.1)
	for i, e := range testExprs(profs) {
		node, ok := idx.CompileExpr(e)
		if !ok {
			t.Fatalf("expr %d did not compile", i)
		}
		if got, want := idx.CountNode(node), scanCount(profs, e); got != want {
			t.Errorf("expr %d: index %d, scan %d", i, got, want)
		}
	}
}

func TestMatchExprSlotAgreesWithMatch(t *testing.T) {
	profs, idx := population(t, 300, 0)
	for _, e := range testExprs(profs) {
		for _, p := range profs[:50] {
			slot, ok := idx.Slot(p.ID)
			if !ok {
				t.Fatalf("no slot for %s", p.ID)
			}
			got, ok := idx.MatchExprSlot(e, p, slot)
			if !ok {
				t.Fatalf("MatchExprSlot did not handle %v", e)
			}
			if want := e.Match(p); got != want {
				t.Errorf("user %s expr %v: probe %v, scan %v", p.ID, e, got, want)
			}
		}
	}
}

func TestGeoExprFallsBack(t *testing.T) {
	_, idx := population(t, 50, 0)
	e := attr.WithinKM{Lat: 42.36, Lon: -71.06, KM: 50}
	if _, ok := idx.CompileExpr(e); ok {
		t.Fatal("WithinKM unexpectedly compiled; it must force the scan fallback")
	}
	if _, ok := idx.CompileExpr(attr.And{Ops: []attr.Expr{attr.MatchAll{}, e}}); ok {
		t.Fatal("expression containing WithinKM unexpectedly compiled")
	}
}

func TestIncrementalAttrChange(t *testing.T) {
	profs, idx := population(t, 100, 0)
	p := profs[17]
	const id = attr.ID("test.incremental.attr")

	if slot, _ := idx.Slot(p.ID); idx.TestAttr(id, slot) {
		t.Fatal("attribute set before mutation")
	}
	p.SetAttr(id) // no watcher attached: index must be told explicitly
	idx.NoteAttrChanged(p, id)
	slot, _ := idx.Slot(p.ID)
	if !idx.TestAttr(id, slot) {
		t.Fatal("attribute not indexed after NoteAttrChanged")
	}
	if got := idx.AttrCount(id); got != 1 {
		t.Fatalf("AttrCount = %d, want 1", got)
	}

	// Categorical value moves between value posting lists.
	p.SetAttrValue(id, "red")
	idx.NoteAttrChanged(p, id)
	node, _ := idx.CompileExpr(attr.ValueIs{ID: id, Value: "red"})
	if idx.CountNode(node) != 1 {
		t.Fatal("value=red not indexed")
	}
	p.SetAttrValue(id, "blue")
	idx.NoteAttrChanged(p, id)
	nodeRed, _ := idx.CompileExpr(attr.ValueIs{ID: id, Value: "red"})
	nodeBlue, _ := idx.CompileExpr(attr.ValueIs{ID: id, Value: "blue"})
	if idx.CountNode(nodeRed) != 0 || idx.CountNode(nodeBlue) != 1 {
		t.Fatal("value change did not move the user between posting lists")
	}
}

func TestIncrementalLikes(t *testing.T) {
	profs, idx := population(t, 100, 0)
	p := profs[3]
	slot, _ := idx.Slot(p.ID)

	idx.NoteLike(p.ID, "page-x", true)
	if !idx.TestLike("page-x", slot) {
		t.Fatal("like not indexed")
	}
	if idx.CountNode(idx.LikesNode("page-x")) != 1 {
		t.Fatal("LikesNode count != 1")
	}
	idx.NoteLike(p.ID, "page-x", false)
	if idx.TestLike("page-x", slot) {
		t.Fatal("unlike not applied")
	}
	// Unknown users are ignored, not indexed.
	idx.NoteLike("no-such-user", "page-x", true)
	if idx.CountNode(idx.LikesNode("page-x")) != 0 {
		t.Fatal("unknown user's like was indexed")
	}
}

func TestAudienceBitmaps(t *testing.T) {
	_, idx := population(t, 100, 0)
	b := index.NewBitmap(idx.Len())
	idx.SetBit(b, 5)
	idx.SetBit(b, 64)
	if !idx.TestBit(b, 5) || !idx.TestBit(b, 64) || idx.TestBit(b, 6) {
		t.Fatal("bitmap bits wrong")
	}
	if got := idx.CountNode(index.BitmapNode(b)); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	idx.ClearBit(b, 64)
	if got := idx.CountNode(index.BitmapNode(b)); got != 1 {
		t.Fatalf("count after clear = %d, want 1", got)
	}
	// Combined with NOT: everyone except slot 5.
	n := index.AndNodes(index.NotNode(index.BitmapNode(b)), index.AndNodes())
	if got := idx.CountNode(n); got != idx.Len()-1 {
		t.Fatalf("NOT count = %d, want %d", got, idx.Len()-1)
	}
}

func TestUserSetNode(t *testing.T) {
	profs, idx := population(t, 100, 0)
	ids := []profile.UserID{profs[1].ID, profs[9].ID, "unknown-user"}
	n := idx.UserSetNode(ids)
	if got := idx.CountNode(n); got != 2 {
		t.Fatalf("count = %d, want 2 (unknown users skipped)", got)
	}
}

func TestDuplicateAddRejected(t *testing.T) {
	profs, idx := population(t, 10, 0)
	if err := idx.Add(profs[0]); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
}

func TestBuildFromStore(t *testing.T) {
	profs := workload.Generate(workload.Config{Users: 200, BrokerCoverage: 0.5, MeanPlatformAttrs: 10, MeanPartnerAttrs: 5, Seed: 3})
	store := profile.NewStore()
	for _, p := range profs {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	idx := index.New(index.Options{})
	store.Each(func(p *profile.Profile) {
		if err := idx.Add(p); err != nil {
			t.Fatal(err)
		}
	})
	if idx.Len() != len(profs) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(profs))
	}
	// Slot order must equal store insertion order.
	for i, p := range profs {
		if s, ok := idx.Slot(p.ID); !ok || s != uint32(i) {
			t.Fatalf("slot(%s) = %d,%v, want %d", p.ID, s, ok, i)
		}
	}
}

// TestVerifyExprReportsMismatch plants the fault VerifyExpr exists to find:
// a profile holding an attribute its posting list does not record.
func TestVerifyExprReportsMismatch(t *testing.T) {
	profs, idx := population(t, 200, 0)
	p := profs[11]
	if _, _, err := idx.VerifyExpr(attr.Has{ID: p.Attrs()[0]}, profiles(profs)); err != nil {
		t.Fatalf("consistent index: %v", err)
	}
	const id = attr.ID("test.unindexed.attr")
	p.SetAttr(id) // no watcher: the index is not told
	bc, sc, err := idx.VerifyExpr(attr.Has{ID: id}, profiles(profs))
	if err == nil || bc != sc-1 {
		t.Fatalf("VerifyExpr = %d, %d, %v; want a mismatch error with the bitmap one short", bc, sc, err)
	}
	if _, _, err := idx.VerifyExpr(attr.WithinKM{Lat: 1, Lon: 1, KM: 1}, profiles(profs)); err == nil {
		t.Fatal("VerifyExpr accepted an expression the index cannot compile")
	}
}

// TestIndexFootprint is the tripwire on a shard's per-user index memory: the
// index a platform builds (EnableIndex over its store) holds posting lists
// and slot tables, ~270 B/user on the benchmark's generator. A per-user
// shadow copy of the population took it past 600.
func TestIndexFootprint(t *testing.T) {
	const users = 6000
	cfg := workload.DefaultConfig()
	cfg.Users = users
	store := profile.NewStore()
	workload.Each(cfg, func(p *profile.Profile) {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	})
	eng := audience.NewEngine(store, pixel.NewRegistry())
	if err := eng.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	eng.Index().RefreshMemoryGauge()
	perUser := int(obs.Default.Gauge("index_memory_bytes", "").Value()) / users
	t.Logf("%d B/user", perUser)
	if perUser >= 400 {
		t.Fatalf("index holds %d B/user at %d users, want under 400", perUser, users)
	}
}

// TestQueryZeroAlloc pins the core query discipline: once a plan is
// compiled, counting and probing allocate nothing. CI greps for this test
// by name in the bench smoke.
func TestQueryZeroAlloc(t *testing.T) {
	profs, idx := population(t, 10_000, 0)
	var ids []attr.ID
	seen := map[attr.ID]bool{}
	for _, p := range profs {
		for _, id := range p.Attrs() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if len(ids) >= 3 {
			break
		}
	}
	e := attr.And{Ops: []attr.Expr{
		attr.Or{Ops: []attr.Expr{attr.Has{ID: ids[0]}, attr.Has{ID: ids[1]}}},
		attr.Not{Op: attr.Has{ID: ids[2]}},
		attr.AgeBetween{Min: 21, Max: 55},
	}}
	node, ok := idx.CompileExpr(e)
	if !ok {
		t.Fatal("expr did not compile")
	}
	sink := 0
	if allocs := testing.AllocsPerRun(100, func() { sink += idx.CountNode(node) }); allocs != 0 {
		t.Fatalf("CountNode allocates %.1f per run, want 0", allocs)
	}
	var b bool
	if allocs := testing.AllocsPerRun(100, func() { b = idx.TestNode(node, 4096) }); allocs != 0 {
		t.Fatalf("TestNode allocates %.1f per run, want 0", allocs)
	}
	_ = fmt.Sprint(sink, b)
}
