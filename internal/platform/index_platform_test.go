package platform

import (
	"bytes"
	"context"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
)

// statelessSnapshot marshals a platform's exact state with the NoIndex
// flag normalized away, so an indexed and a scan-only platform can be
// compared byte-for-byte on everything else.
func statelessSnapshot(t *testing.T, p *Platform) []byte {
	t.Helper()
	s := p.State()
	s.NoIndex = false
	return marshalState(t, s)
}

// TestIndexedPlatformMatchesScanPlatform drives the full journal script
// through two platforms that differ only in Config.DisableIndex and
// requires byte-identical end states: same feeds, same auctions, same
// billing, same RNG position. The index must be a pure acceleration.
func TestIndexedPlatformMatchesScanPlatform(t *testing.T) {
	boot := func(disable bool) *Platform {
		p := New(Config{Seed: 7, DisableIndex: disable})
		return p
	}
	indexed, scan := boot(false), boot(true)
	if indexed.comp.Load().audiences.Index() == nil {
		t.Fatal("default platform has no index")
	}
	if scan.comp.Load().audiences.Index() != nil {
		t.Fatal("DisableIndex platform unexpectedly has an index")
	}
	// Seed both platforms with journalBoot's users (fresh profile values
	// each: profiles carry per-store watcher state).
	for _, m := range []*Platform{indexed, scan} {
		sb, err := journalBoot()
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range sb.Users() {
			if err := m.AddUser(sb.User(uid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range journalScript(t) {
		step(indexed)
		step(scan)
	}
	if !bytes.Equal(statelessSnapshot(t, indexed), statelessSnapshot(t, scan)) {
		t.Fatal("indexed and scan platforms diverged after identical scripts")
	}

	// Reach surfaces agree too (not part of the snapshot).
	ctx := context.Background()
	for _, spec := range []audience.Spec{
		{},
		{Include: []audience.AudienceID{"aud-000001"}},
		{Include: []audience.AudienceID{"aud-000004"}, Exclude: []audience.AudienceID{"aud-000002"}},
	} {
		ri, err1 := indexed.PotentialReach(ctx, "wal-adv", spec)
		rs, err2 := scan.PotentialReach(ctx, "wal-adv", spec)
		if ri != rs || (err1 == nil) != (err2 == nil) {
			t.Fatalf("PotentialReach diverges on %+v: %d,%v vs %d,%v", spec, ri, err1, rs, err2)
		}
	}
}

// TestJournalRecoveryRebuildsIndex crashes a journaled indexed platform
// (no clean close, no compaction) and verifies recovery replays the log
// into a platform whose index is rebuilt and provably consistent.
func TestJournalRecoveryRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	jp := mustOpenJournaled(t, dir, journal.Options{}, journalBoot)
	for _, step := range journalScript(t) {
		step(jp)
	}
	want := marshalState(t, jp.State())
	// Crash: drop the handle without Close or Compact.
	jp = nil

	recovered := mustOpenJournaled(t, dir, journal.Options{}, noBoot(t))
	defer recovered.Close()
	got := marshalState(t, recovered.State())
	if !bytes.Equal(got, want) {
		t.Fatal("recovered state differs from pre-crash state")
	}
	idx := recovered.comp.Load().audiences.Index()
	if idx == nil {
		t.Fatal("recovery did not rebuild the index")
	}
	if idx.Len() != len(recovered.Users()) {
		t.Fatalf("rebuilt index covers %d users, store has %d", idx.Len(), len(recovered.Users()))
	}
	salsa := recovered.Catalog().Search("Salsa dance")[0].ID
	if got := verifiedCount(t, recovered, attr.Has{ID: salsa}); got != 5 {
		t.Fatalf("rebuilt index counts %d salsa holders, want 5", got)
	}
}

// verifiedCount runs the index's self-check against the platform's own
// profile store and returns the agreed count.
func verifiedCount(t *testing.T, p *Platform, e attr.Expr) int {
	t.Helper()
	bc, _, err := p.comp.Load().audiences.Index().VerifyExpr(e, p.comp.Load().store)
	if err != nil {
		t.Fatalf("VerifyExpr(%v): %v", e, err)
	}
	return bc
}

// TestVerifyExprOnLivePlatform checks the posting lists against the live
// store after every kind of profile mutation a running platform sees —
// attribute set and value change arrive through the store's watcher,
// likes and unlikes through the journal — and again after crash recovery
// has rebuilt the index by replay.
func TestVerifyExprOnLivePlatform(t *testing.T) {
	dir := t.TempDir()
	jp := mustOpenJournaled(t, dir, journal.Options{}, journalBoot)
	for _, step := range journalScript(t) {
		step(jp)
	}
	p := jp
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	const tier = attr.ID("test.live.tier")
	exprs := func() []int {
		return []int{
			verifiedCount(t, p, attr.Has{ID: salsa}),
			verifiedCount(t, p, attr.ValueIs{ID: tier, Value: "gold"}),
			verifiedCount(t, p, attr.And{Ops: []attr.Expr{
				attr.Not{Op: attr.Has{ID: salsa}}, attr.AgeBetween{Min: 26, Max: 40}}}),
		}
	}
	want := func(step string, salsaHolders, gold, others int) {
		t.Helper()
		got := exprs()
		if got[0] != salsaHolders || got[1] != gold || got[2] != others {
			t.Fatalf("after %s: counts %v, want [%d %d %d]", step, got, salsaHolders, gold, others)
		}
	}
	// journalBoot: ju00..ju09 aged 25..34, the even ones hold salsa;
	// the script adds ju-late (52, no salsa).
	want("the script", 5, 0, 5)
	p.User("ju01").SetAttr(salsa)
	want("SetAttr", 6, 0, 4)
	p.User("ju03").SetAttrValue(tier, "silver")
	p.User("ju05").SetAttrValue(tier, "gold")
	want("SetAttrValue", 6, 1, 4)
	p.User("ju03").SetAttrValue(tier, "gold")
	want("a value change", 6, 2, 4)
	if err := jp.LikePage("ju07", "page-w"); err != nil {
		t.Fatal(err)
	}
	if _, err := jp.commit(context.Background(), &opRecord{Op: opUnlikePage, User: "ju02", Page: "page-w"}); err != nil {
		t.Fatal(err)
	}
	want("like and unlike", 6, 2, 4)
	wantLikers := func(step string) {
		t.Helper()
		likers := 0
		for _, uid := range p.Users() {
			if p.User(uid).LikesPage("page-w") {
				likers++
			}
		}
		if got := p.comp.Load().audiences.Index().CountNode(p.comp.Load().audiences.Index().LikesNode("page-w")); got != likers || likers != 2 {
			t.Fatalf("after %s: page-w: index counts %d likers, the store %d, want 2", step, got, likers)
		}
	}
	wantLikers("like and unlike")

	// Crash: drop the handle without Close or Compact. Attribute edits are
	// not journaled ops, so recovery is the boot state plus the replayed log.
	jp = nil
	recovered := mustOpenJournaled(t, dir, journal.Options{}, noBoot(t))
	defer recovered.Close()
	p = recovered
	want("recovery", 5, 0, 5)
	wantLikers("recovery")
}

// TestNoIndexFlagRoundTrips pins the snapshot format: a DisableIndex
// platform restores without an index, a default platform restores with
// one.
func TestNoIndexFlagRoundTrips(t *testing.T) {
	for _, disable := range []bool{false, true} {
		p := New(Config{Seed: 1, DisableIndex: disable})
		restored, err := Restore(p.State())
		if err != nil {
			t.Fatal(err)
		}
		hasIdx := restored.comp.Load().audiences.Index() != nil
		if hasIdx == disable {
			t.Fatalf("DisableIndex=%v restored with index=%v", disable, hasIdx)
		}
	}
}
