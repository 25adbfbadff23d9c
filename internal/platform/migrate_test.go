package platform

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// scriptedPlatform builds a populated plain platform by running the
// journal test script against a journalBoot platform.
func scriptedPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := journalBoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range journalScript(t) {
		step(p)
	}
	return p
}

// TestExtractMergePartition pins the migration algebra at the platform
// level: extract(users) + remove(users) partition the state, and merging
// the chunk into the remainder reconstructs every per-user row and the
// exact accounting.
func TestExtractMergePartition(t *testing.T) {
	p := scriptedPlatform(t)
	s := p.State()

	moving := UserSet([]profile.UserID{"ju01", "ju03", "ju-late"})
	chunk := ExtractUsersChunk(s, moving)
	rest := RemoveUsersState(s, moving)

	if got := chunk.Users(); len(got) == 0 {
		t.Fatal("chunk carries no users")
	}
	for _, ps := range rest.Profiles {
		if moving(ps.ID) {
			t.Fatalf("removed state still holds profile %s", ps.ID)
		}
	}
	// Both halves restore.
	if _, err := Restore(rest); err != nil {
		t.Fatalf("restoring remainder: %v", err)
	}

	merged, err := MergeChunkState(rest, chunk)
	if err != nil {
		t.Fatalf("MergeChunkState: %v", err)
	}
	mp, err := Restore(merged)
	if err != nil {
		t.Fatalf("restoring merged state: %v", err)
	}

	// Every per-user surface reconciles exactly with the original platform.
	for _, uid := range p.Users() {
		if len(mp.Feed(uid)) != len(p.Feed(uid)) {
			t.Fatalf("user %s feed %d != %d", uid, len(mp.Feed(uid)), len(p.Feed(uid)))
		}
	}
	for _, cid := range []string{"camp-000001", "camp-000003"} {
		for name, fn := range map[string]func(*Platform) interface{}{
			"impressions": func(q *Platform) interface{} { return q.comp.Load().pipeline.Totals(cid).Impressions },
			"reach":       func(q *Platform) interface{} { return q.comp.Load().pipeline.Totals(cid).Reach },
			"spend":       func(q *Platform) interface{} { return q.comp.Load().pipeline.Totals(cid).Spend },
		} {
			if got, want := fn(mp), fn(p); got != want {
				t.Fatalf("campaign %s %s: merged %v != original %v", cid, name, got, want)
			}
		}
	}

	// Replace semantics: merging the same chunk again changes nothing.
	again, err := MergeChunkState(merged, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalState(t, again), marshalState(t, merged)) {
		t.Fatal("re-merging the same chunk is not idempotent")
	}
}

// TestMergeChunkRejectsUnknownRefs pins validate-before-journal: a chunk
// referencing advertiser config the destination lacks is refused.
func TestMergeChunkRejectsUnknownRefs(t *testing.T) {
	p := scriptedPlatform(t)
	s := p.State()
	empty := StripUsersState(s, stats.SubSeed(s.Seed, 1))
	empty.Pixels.Pixels = nil // forget the pixel config

	chunk := ExtractUsersChunk(s, UserSet([]profile.UserID{"ju01"}))
	if len(chunk.Visits) == 0 {
		t.Fatal("test premise: ju01 visited a pixel")
	}
	if _, err := MergeChunkState(empty, chunk); err == nil {
		t.Fatal("merge with unknown pixel succeeded")
	}
}

// TestStripUsersStateKeepsSkeleton pins what a freshly added shard boots
// from: all advertiser config, zero users, a fresh seed.
func TestStripUsersStateKeepsSkeleton(t *testing.T) {
	p := scriptedPlatform(t)
	s := p.State()
	stripped := StripUsersState(s, 12345)
	if len(stripped.Profiles) != 0 || len(stripped.Pipeline.Feeds) != 0 || len(stripped.Ledger.Accounts) != 0 {
		t.Fatalf("stripped state still carries user rows: %d profiles, %d feeds, %d accounts",
			len(stripped.Profiles), len(stripped.Pipeline.Feeds), len(stripped.Ledger.Accounts))
	}
	if len(stripped.Pipeline.Campaigns) != len(s.Pipeline.Campaigns) || len(stripped.Audiences.Audiences) != len(s.Audiences.Audiences) {
		t.Fatal("stripped state lost advertiser config")
	}
	if stripped.Seed != 12345 {
		t.Fatalf("seed = %d", stripped.Seed)
	}
	sp, err := Restore(stripped)
	if err != nil {
		t.Fatalf("restoring stripped state: %v", err)
	}
	if len(sp.Users()) != 0 {
		t.Fatal("restored stripped platform has users")
	}
}

// TestJournaledMigrationRecovery moves users between two journaled shards
// and crash-recovers both: the import and removal are journaled mutations,
// so recovery must land byte-identical on each side.
func TestJournaledMigrationRecovery(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	opts := journal.Options{NoSync: true}
	src := mustOpenJournaled(t, srcDir, opts, journalBoot)
	for _, step := range journalScript(t) {
		step(src)
	}
	dst := mustOpenJournaled(t, dstDir, opts, func() (*Platform, error) { return New(Config{Seed: 99}), nil })

	// Bootstrap the destination with the source's advertiser skeleton.
	srcState, _, err := src.StateAndLSN(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallState(StripUsersState(srcState, stats.SubSeed(srcState.Seed, 1))); err != nil {
		t.Fatalf("InstallState: %v", err)
	}

	users := []profile.UserID{"ju00", "ju02", "ju04"}
	chunk, err := src.ExportUsers(users)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportUsers(chunk); err != nil {
		t.Fatalf("ImportUsers: %v", err)
	}
	if err := src.RemoveUsers(users); err != nil {
		t.Fatalf("RemoveUsers: %v", err)
	}

	// The destination serves the moved users; the source no longer does.
	if len(dst.Feed("ju00")) == 0 {
		t.Fatal("moved user's feed empty on destination")
	}
	if src.User("ju00") != nil {
		t.Fatal("source still knows moved user")
	}

	wantSrc, wantDst := marshalState(t, src.State()), marshalState(t, dst.State())
	src.Close()
	dst.Close()

	src2 := mustOpenJournaled(t, srcDir, opts, noBoot(t))
	dst2 := mustOpenJournaled(t, dstDir, opts, noBoot(t))
	defer src2.Close()
	defer dst2.Close()
	if !bytes.Equal(marshalState(t, src2.State()), wantSrc) {
		t.Fatal("source recovery diverged after remove_users")
	}
	if !bytes.Equal(marshalState(t, dst2.State()), wantDst) {
		t.Fatal("destination recovery diverged after import_users")
	}
}

// followStatus reads an in-process member's follow status (it cannot fail).
func followStatus(jp *Journaled) FollowStatus {
	st, _ := jp.FollowStatus()
	return st
}

// TestJournaledShipFollow wires a follower to an owner via the shipping
// hook and requires byte-identical convergence, refusal of direct
// mutations, and a working promotion.
func TestJournaledShipFollow(t *testing.T) {
	opts := journal.Options{NoSync: true}
	owner := mustOpenJournaled(t, t.TempDir(), opts, journalBoot)
	follower := mustOpenJournaled(t, t.TempDir(), opts, func() (*Platform, error) { return New(Config{Seed: 5}), nil })

	state, lsn, _ := owner.StateAndLSN(false)
	if err := follower.InstallState(state); err != nil {
		t.Fatal(err)
	}
	follower.BeginFollow(lsn)
	owner.SetShipper(follower.ApplyShipped)

	for _, step := range journalScript(t) {
		step(owner)
	}
	if !followStatus(follower).Synced {
		t.Fatal("follower fell out of sync during clean shipping")
	}
	if !bytes.Equal(marshalState(t, owner.State()), marshalState(t, follower.State())) {
		t.Fatal("follower state diverged from owner")
	}

	if err := follower.RegisterAdvertiser("rogue"); !errors.Is(err, ErrFollowing) {
		t.Fatalf("direct mutation on follower = %v, want ErrFollowing", err)
	}

	// Promote: the follower becomes writable and keeps the replicated state.
	follower.EndFollow()
	if err := follower.RegisterAdvertiser("post-promotion"); err != nil {
		t.Fatalf("mutation after promotion: %v", err)
	}
}

// TestFollowerGapAndTailResync pins the follower's side of shipping: one
// that missed shipped records refuses the next one, and the owner's journal
// tail (journal.TailSince) replays it back to byte-identical sync — shipped
// records and journal records are one format.
func TestFollowerGapAndTailResync(t *testing.T) {
	opts := journal.Options{NoSync: true}
	owner := mustOpenJournaled(t, t.TempDir(), opts, journalBoot)
	follower := mustOpenJournaled(t, t.TempDir(), opts, func() (*Platform, error) { return New(Config{Seed: 5}), nil })

	state, lsn, _ := owner.StateAndLSN(false)
	if err := follower.InstallState(state); err != nil {
		t.Fatal(err)
	}
	follower.BeginFollow(lsn)

	// Owner mutates with shipping disconnected: the follower misses records.
	for i, step := range journalScript(t) {
		step(owner)
		if i == 2 {
			break
		}
	}
	if _, err := owner.BrowseFeed("ju00", 3); err != nil {
		t.Fatal(err)
	}

	// A late ship at the owner's current LSN is a gap.
	_, cur, _ := owner.StateAndLSN(false)
	if err := follower.ApplyShipped(cur, []byte(`{"op":"register_advertiser","name":"x"}`)); !errors.Is(err, ErrNotSynced) {
		t.Fatalf("gap apply = %v, want ErrNotSynced", err)
	}
	if followStatus(follower).Synced {
		t.Fatal("follower still synced after gap")
	}

	// Resync via tail replay from the follower's last good LSN.
	follower.BeginFollow(followStatus(follower).ShipLSN)
	if err := owner.j.TailSince(followStatus(follower).ShipLSN, follower.ApplyShipped); err != nil {
		t.Fatalf("tail resync: %v", err)
	}
	if !followStatus(follower).Synced {
		t.Fatal("follower not synced after tail resync")
	}
	if !bytes.Equal(marshalState(t, owner.State()), marshalState(t, follower.State())) {
		t.Fatal("follower diverged after tail resync")
	}

	// And a compacted tail is refused.
	if _, err := owner.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.BrowseFeed("ju01", 2); err != nil {
		t.Fatal(err)
	}
	var ce *journal.ErrCompacted
	err := owner.j.TailSince(0, func(uint64, []byte) error { return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("TailSince(0) after compaction = %v, want *journal.ErrCompacted", err)
	}
}

// TestImportValidateBeforeJournal pins that a refused import journals
// nothing: recovery after a refused chunk matches recovery without it.
func TestImportValidateBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	opts := journal.Options{NoSync: true}
	jp := mustOpenJournaled(t, dir, opts, journalBoot)
	before := jp.LastLSN()

	for name, chunk := range map[string]MigrationChunk{
		"feed row": {
			Profiles: []profile.State{{ID: "imp-user"}},
			Feeds: []delivery.FeedState{{
				User:        "imp-user",
				Impressions: []ad.Impression{{CampaignID: "camp-999999", Advertiser: "wal-adv"}},
			}},
		},
		"billing row": {
			Profiles: []profile.State{{ID: "imp-user"}},
			Billing: []billing.AccountState{{
				CampaignID: "camp-999999", Impressions: 3, Spend: 30,
				Users: []billing.UserAccountState{{User: "imp-user", Impressions: 3, Spend: 30}},
			}},
		},
	} {
		if err := jp.ImportUsers(chunk); err == nil {
			t.Fatalf("import with unknown campaign in a %s succeeded", name)
		}
		if jp.LastLSN() != before {
			t.Fatalf("refused import (%s) advanced the journal: %d -> %d", name, before, jp.LastLSN())
		}
	}
	want := marshalState(t, jp.State())
	jp.Close()
	jp2 := mustOpenJournaled(t, dir, opts, noBoot(t))
	defer jp2.Close()
	if !bytes.Equal(marshalState(t, jp2.State()), want) {
		t.Fatal("recovery diverged after refused import")
	}
}

// TestJournaledReadsDuringShipAndImport pins that reads on a journaled
// platform need no lock against the write path: a follower serves Feed /
// AdPreferences / User while the owner ships it records, and a reshard
// destination serves them while ImportUsers swaps its platform. Run under
// -race; the platform pointer must be published atomically.
func TestJournaledReadsDuringShipAndImport(t *testing.T) {
	opts := journal.Options{NoSync: true}
	owner := mustOpenJournaled(t, t.TempDir(), opts, journalBoot)
	follower := mustOpenJournaled(t, t.TempDir(), opts, func() (*Platform, error) { return New(Config{Seed: 5}), nil })
	dest := mustOpenJournaled(t, t.TempDir(), opts, func() (*Platform, error) { return New(Config{Seed: 6}), nil })
	defer owner.Close()
	defer follower.Close()
	defer dest.Close()
	for _, step := range journalScript(t) {
		step(owner)
	}
	state, lsn, _ := owner.StateAndLSN(false)
	if err := follower.InstallState(state); err != nil {
		t.Fatal(err)
	}
	follower.BeginFollow(lsn)
	owner.SetShipper(follower.ApplyShipped)
	if err := dest.InstallState(StripUsersState(state, 77)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, jp := range []*Journaled{follower, follower, dest, dest} {
		wg.Add(1)
		go func(jp *Journaled) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				jp.Feed("ju00")
				jp.AdPreferences("ju00")
				jp.User("ju00")
			}
		}(jp)
	}

	users := owner.Users()
	for i := 0; i < 200; i++ {
		if err := owner.LikePage("ju00", fmt.Sprintf("page-%03d", i)); err != nil {
			t.Fatalf("LikePage %d: %v", i, err)
		}
		if i%20 == 0 {
			// Replace semantics make re-importing the same user idempotent.
			chunk, err := owner.ExportUsers(users[:1+i/20])
			if err != nil {
				t.Fatal(err)
			}
			if err := dest.ImportUsers(chunk); err != nil {
				t.Fatalf("ImportUsers: %v", err)
			}
		}
	}
	// An install on the follower is the resync path; reads stay up across it.
	state, lsn, _ = owner.StateAndLSN(false)
	if err := follower.InstallState(state); err != nil {
		t.Fatal(err)
	}
	follower.BeginFollow(lsn)
	close(stop)
	wg.Wait()

	if st := followStatus(follower); !st.Synced || st.ShipLSN != owner.LastLSN() {
		t.Fatalf("follower at %+v, owner at LSN %d", st, owner.LastLSN())
	}
	if !bytes.Equal(marshalState(t, owner.State()), marshalState(t, follower.State())) {
		t.Fatal("follower diverged from owner under concurrent reads")
	}
	if got := len(dest.Users()); got != 10 {
		t.Fatalf("destination holds %d users after imports, want 10", got)
	}
}
