package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/profile"
)

// journalBoot builds the deterministic initial platform the journaled
// tests start from: default market (so auctions draw real randomness),
// users with PII, likes, and attributes.
func journalBoot() (*Platform, error) {
	p := New(Config{Seed: 7})
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	for i := 0; i < 10; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("ju%02d", i)))
		pr.SetCountry("US")
		pr.AgeYrs = uint8(25 + i)
		pr.SetPII(pii.Record{Emails: []string{fmt.Sprintf("ju%02d@example.com", i)}})
		if i%2 == 0 {
			pr.SetAttr(salsa)
		}
		if err := p.AddUser(pr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// journalScript is a realistic mutation sequence touching every journaled
// operation, including refused ones (duplicate registration, campaign
// against an unknown audience — which still burns a campaign ID — and a
// pixel fire for an unknown user). Each step is one journal record.
func journalScript(t *testing.T) []func(m *Platform) {
	t.Helper()
	key, err := pii.HashEmail("ju03@example.com")
	if err != nil {
		t.Fatal(err)
	}
	stranger, err := pii.HashEmail("nobody@example.net")
	if err != nil {
		t.Fatal(err)
	}
	newcomer := func() *profile.Profile {
		pr := profile.New("ju-late")
		pr.SetCountry("US")
		pr.AgeYrs = 52
		pr.SetPII(pii.Record{Emails: []string{"ju-late@example.com"}})
		return pr
	}
	return []func(m *Platform){
		func(m *Platform) { m.RegisterAdvertiser("wal-adv") },
		func(m *Platform) { m.RegisterAdvertiser("wal-adv") }, // refused: duplicate
		func(m *Platform) { m.RegisterAdvertiser("other-adv") },
		func(m *Platform) { m.IssuePixel("wal-adv") }, // px-000001
		func(m *Platform) { m.VisitPage("ju01", "px-000001") },
		func(m *Platform) { m.VisitPage("ghost", "px-000001") }, // refused: unknown user
		func(m *Platform) { m.LikePage("ju02", "page-w") },
		func(m *Platform) { m.LikePage("ju04", "page-w") },
		func(m *Platform) {
			m.CreateAudience("wal-adv", audience.Def{Kind: audience.KindEngagement, Name: "eng", Page: "page-w"})
		}, // aud-000001
		func(m *Platform) {
			m.CreateAudience("wal-adv", audience.Def{Kind: audience.KindPII, Name: "list", Keys: []pii.MatchKey{key, stranger}})
		}, // aud-000002
		func(m *Platform) {
			m.CreateAudience("wal-adv", audience.Def{Kind: audience.KindWebsite, Name: "web", Pixel: "px-000001"})
		}, // aud-000003
		func(m *Platform) {
			m.CreateAudience("wal-adv", audience.Def{Kind: audience.KindAffinity, Name: "aff", Phrases: []string{"salsa"}})
		}, // aud-000004
		func(m *Platform) {
			m.CreateCampaign("wal-adv", CampaignParams{
				Spec:      audience.Spec{Include: []audience.AudienceID{"aud-000004"}},
				BidCapCPM: money.FromDollars(10),
				Creative:  ad.Creative{Headline: "salsa shoes", Body: "dance!"},
			}) // camp-000001
		},
		func(m *Platform) {
			m.CreateCampaign("wal-adv", CampaignParams{
				Spec: audience.Spec{Include: []audience.AudienceID{"aud-999999"}},
			}) // refused: unknown audience, but burns camp-000002
		},
		func(m *Platform) { m.BrowseFeed("ju00", 5) },
		func(m *Platform) { m.BrowseFeed("ju01", 5) },
		func(m *Platform) { m.BrowseFeed("ju02", 3) },
		func(m *Platform) {
			m.CreateAudience("wal-adv", audience.Def{Kind: audience.KindLookalike, Name: "look", Seed: "aud-000001", Overlap: 0.5})
		},
		func(m *Platform) {
			m.CreateCampaign("other-adv", CampaignParams{
				Spec:      audience.Spec{Exclude: []audience.AudienceID{"aud-000002"}},
				BidCapCPM: money.FromDollars(10),
				Creative:  ad.Creative{Headline: "generic", Body: "buy things"},
			}) // camp-000003
		},
		func(m *Platform) { m.BrowseFeed("ju03", 4) },
		func(m *Platform) { m.PauseCampaign("wal-adv", "camp-000001") },
		func(m *Platform) { m.BrowseFeed("ju04", 4) },
		func(m *Platform) { m.AddUser(newcomer()) },
		func(m *Platform) { m.BrowseFeed("ju-late", 6) },
		func(m *Platform) { m.BrowseFeed("ju00", 2) },
	}
}

func marshalState(t *testing.T, s State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exactState snapshots a platform with its live RNG state.
func exactState(t *testing.T, p *Platform) []byte {
	t.Helper()
	return marshalState(t, p.State())
}

func mustOpenJournaled(t *testing.T, dir string, opts journal.Options, boot func() (*Platform, error)) *Journaled {
	t.Helper()
	jp, err := OpenJournaled(dir, opts, boot)
	if err != nil {
		t.Fatalf("OpenJournaled(%s): %v", dir, err)
	}
	return jp
}

func noBoot(t *testing.T) func() (*Platform, error) {
	return func() (*Platform, error) {
		t.Fatal("boot called during recovery of an existing journal")
		return nil, nil
	}
}

// TestOneScriptThreePlatforms drives journalScript through a platform
// without a journal and through a journaled one, then recovers the
// journaled one: the three snapshots are the same bytes, so the path the
// experiments measure and the durable path apply every op the same way.
func TestOneScriptThreePlatforms(t *testing.T) {
	dir := t.TempDir()
	opts := journal.Options{NoSync: true}
	plain, err := journalBoot()
	if err != nil {
		t.Fatal(err)
	}
	jp := mustOpenJournaled(t, dir, opts, journalBoot)
	for _, step := range journalScript(t) {
		step(plain)
		step(jp)
	}
	snaps := map[string][]byte{
		"without a journal": marshalState(t, plain.State()),
		"journaled":         marshalState(t, jp.State()),
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	back := mustOpenJournaled(t, dir, opts, noBoot(t))
	defer back.Close()
	snaps["recovered"] = marshalState(t, back.State())
	for name, got := range snaps {
		if !bytes.Equal(got, snaps["without a journal"]) {
			t.Errorf("%s: %d snapshot bytes differ from the %d of the platform without a journal", name, len(got), len(snaps["without a journal"]))
		}
	}
	t.Logf("all three snapshots: %d bytes", len(snaps["journaled"]))
}

// TestJournaledRecoveryIdentical drives the full script, closes cleanly
// WITHOUT compacting, recovers purely via snapshot+replay, and requires
// the recovered state to be byte-identical — feeds, frequency caps,
// billing, policy state, RNG position and all.
func TestJournaledRecoveryIdentical(t *testing.T) {
	dir := t.TempDir()
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, journalBoot)
	for _, step := range journalScript(t) {
		step(jp)
	}
	want := marshalState(t, jp.State())
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}

	jp2 := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, noBoot(t))
	defer jp2.Close()
	got := marshalState(t, jp2.State())
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs from pre-crash state:\nwant %d bytes\ngot  %d bytes", len(want), len(got))
	}
	// The recovered platform keeps working and stays deterministic: the
	// same browse on the closed original's live components and on the
	// recovered platform yields the same impressions.
	imps1, err1 := jp.comp.Load().browse(context.Background(), "ju01", 3)
	imps2, err2 := jp2.BrowseFeed("ju01", 3)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-recovery browse: %v / %v", err1, err2)
	}
	if len(imps1) != len(imps2) {
		t.Fatalf("post-recovery divergence: %d vs %d impressions", len(imps1), len(imps2))
	}
	for i := range imps1 {
		if fmt.Sprintf("%+v", imps1[i]) != fmt.Sprintf("%+v", imps2[i]) {
			t.Fatalf("post-recovery impression %d differs: %+v vs %+v", i, imps1[i], imps2[i])
		}
	}
}

// TestJournaledRecoveryAfterCompaction compacts mid-script (so recovery
// restores a mid-stream snapshot — frozen RNG included — and replays only
// the suffix) and again requires byte-identical state.
func TestJournaledRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true, SegmentBytes: 512}, journalBoot)
	script := journalScript(t)
	for i, step := range script {
		step(jp)
		if i == len(script)/2 {
			if _, err := jp.Compact(); err != nil {
				t.Fatalf("mid-script Compact: %v", err)
			}
		}
	}
	want := marshalState(t, jp.State())
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	jp2 := mustOpenJournaled(t, dir, journal.Options{NoSync: true, SegmentBytes: 512}, noBoot(t))
	defer jp2.Close()
	if got := marshalState(t, jp2.State()); !bytes.Equal(want, got) {
		t.Fatal("state recovered from mid-stream snapshot + replay differs from pre-crash state")
	}
}

// TestJournaledStateLargerThanOneRecord runs a shard whose marshalled state
// does not fit one journal record through the whole snapshot life cycle:
// the boot snapshot, a mid-script compaction, a clean close, recovery, and
// a wholesale InstallState on a second shard. (Seventeen users each holding
// a 1 MiB attribute value stand in for the ~9 000 generated users it takes.)
func TestJournaledStateLargerThanOneRecord(t *testing.T) {
	boot := func() (*Platform, error) {
		p, err := journalBoot()
		if err != nil {
			return nil, err
		}
		for i := 0; i < 17; i++ {
			pr := profile.New(profile.UserID(fmt.Sprintf("big%02d", i)))
			pr.SetAttrValue("test.big.value", strings.Repeat(string(rune('a'+i)), 1<<20))
			if err := p.AddUser(pr); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	dir := t.TempDir()
	opts := journal.Options{NoSync: true}
	jp := mustOpenJournaled(t, dir, opts, boot)
	script := journalScript(t)
	for i, step := range script {
		step(jp)
		if i == len(script)/2 {
			if _, err := jp.Compact(); err != nil {
				t.Fatalf("mid-script Compact: %v", err)
			}
		}
	}
	state := jp.State()
	want := marshalState(t, state)
	if len(want) <= journal.MaxRecordBytes {
		t.Fatalf("state is %d bytes, the test needs more than %d", len(want), journal.MaxRecordBytes)
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	jp2 := mustOpenJournaled(t, dir, opts, noBoot(t))
	defer jp2.Close()
	if got := marshalState(t, jp2.State()); !bytes.Equal(want, got) {
		t.Fatal("state recovered from a multi-frame snapshot + replay differs from pre-close state")
	}

	dir2 := t.TempDir()
	follower := mustOpenJournaled(t, dir2, opts, func() (*Platform, error) { return New(Config{Seed: 7}), nil })
	if err := follower.InstallState(state); err != nil {
		t.Fatalf("InstallState: %v", err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower = mustOpenJournaled(t, dir2, opts, noBoot(t))
	defer follower.Close()
	if got := marshalState(t, follower.State()); !bytes.Equal(want, got) {
		t.Fatal("state recovered from an installed multi-frame snapshot differs from the installed state")
	}
}

// TestRecoverJournalWrittenByPerSlotScan recovers testdata/journal_pr14, a
// journal directory written by the last build whose delivery scanned every
// campaign for every slot: a snapshot taken mid-script plus a tail of
// records — campaigns keyed on an attribute, keyed through an AND, and
// unkeyed; include-all, exclude and a budget two impressions wide; likes,
// visits and a pause between browses; and one browse with a negative slot
// count, which that build applied as a no-op. Recovery must reach the state
// that build exported when it closed (testdata/journal_pr14_state.json),
// byte for byte: same impressions, same charges, same RNG state.
func TestRecoverJournalWrittenByPerSlotScan(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/journal_pr14/*")
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture premise: a snapshot and one log segment, got %v (%v)", files, err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	indented, err := os.ReadFile("testdata/journal_pr14_state.json")
	if err != nil {
		t.Fatal(err)
	}
	// That build indented its export; the document is the same.
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, noBoot(t))
	defer jp.Close()
	if got := marshalState(t, jp.State()); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("recovered state differs from the one the writing build exported (%d vs %d bytes)", len(got), want.Len())
	}
	// The tail really exercised the serve path.
	if n := len(jp.Feed("ju02")); n < 6 {
		t.Fatalf("fixture premise: ju02 was served %d impressions", n)
	}
}

// TestJournaledCrashSweep is the acceptance crash test: the final journal
// segment is truncated at EVERY byte offset, and each truncation must
// recover to exactly the state reached after some prefix of the script —
// verified byte-for-byte against independently computed reference states.
func TestJournaledCrashSweep(t *testing.T) {
	master := t.TempDir()
	jp := mustOpenJournaled(t, master, journal.Options{NoSync: true}, journalBoot)
	script := journalScript(t)
	for _, step := range script {
		step(jp)
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference states: boot state, then one per completed op, computed on
	// a plain platform recovered from the boot snapshot (the same base the
	// journaled recovery will use).
	data, snapLSN, err := readJournalSnapshot(master)
	if err != nil {
		t.Fatal(err)
	}
	if snapLSN != 0 {
		t.Fatalf("boot snapshot at LSN %d, want 0", snapLSN)
	}
	bootState, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Restore(bootState)
	if err != nil {
		t.Fatal(err)
	}
	refStates := [][]byte{exactState(t, ref)}
	for _, step := range script {
		step(ref)
		refStates = append(refStates, exactState(t, ref))
	}

	// Locate the single WAL segment and sweep every truncation point.
	segPath, whole := readOnlySegment(t, master)
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for cut := 0; cut <= len(whole); cut += stride {
		dir := filepath.Join(t.TempDir(), "crash")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyFile(t, filepath.Join(dir, "snap-0000000000000000.db"), nil, master)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segPath)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := OpenJournaled(dir, journal.Options{NoSync: true}, noBoot(t))
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := jc.LastLSN()
		if k > uint64(len(script)) {
			t.Fatalf("cut %d: recovered %d ops, script only has %d", cut, k, len(script))
		}
		if got := marshalState(t, jc.State()); !bytes.Equal(got, refStates[k]) {
			t.Fatalf("cut %d: recovered state (after %d ops) differs from reference", cut, k)
		}
		// The recovered platform must accept new work.
		if err := jc.RegisterAdvertiser(fmt.Sprintf("post-crash-%d", cut)); err != nil {
			t.Fatalf("cut %d: post-recovery mutation: %v", cut, err)
		}
		jc.Close()
	}
}

// readJournalSnapshot opens the journal read-only to fetch its newest
// snapshot (test helper around journal internals).
func readJournalSnapshot(dir string) ([]byte, uint64, error) {
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		return nil, 0, err
	}
	defer j.Close()
	snap, lsn, err := j.Snapshot()
	if err != nil || snap == nil {
		return nil, lsn, err
	}
	defer snap.Close()
	data, err := io.ReadAll(snap)
	return data, lsn, err
}

// readOnlySegment returns the path and contents of the journal's single
// WAL segment, failing if rotation produced more than one.
func readOnlySegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("want exactly 1 segment for the sweep, got %v", matches)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	return matches[0], raw
}

// copyFile copies the boot snapshot from master into dir (contents may be
// passed pre-read to avoid rereading).
func copyFile(t *testing.T, dst string, contents []byte, master string) {
	t.Helper()
	if contents == nil {
		var err error
		contents, err = os.ReadFile(filepath.Join(master, filepath.Base(dst)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(dst, contents, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournaledConcurrentMutations exercises the group-commit path under
// the race detector and checks every acknowledged op survives recovery.
// The platform without a journal takes the same traffic, with reads beside
// it and no op lock, each component guarding itself; it must acknowledge
// every op it was given.
func TestJournaledConcurrentMutations(t *testing.T) {
	for _, journaled := range []bool{true, false} {
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			dir := t.TempDir()
			var jp *Platform
			if journaled {
				jp = mustOpenJournaled(t, dir, journal.Options{}, journalBoot)
			} else {
				var err error
				if jp, err = journalBoot(); err != nil {
					t.Fatal(err)
				}
			}
			if err := jp.RegisterAdvertiser("conc-adv"); err != nil {
				t.Fatal(err)
			}
			const goroutines, perG = 6, 15
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					uid := profile.UserID(fmt.Sprintf("ju%02d", g%10))
					for i := 0; i < perG; i++ {
						switch i % 3 {
						case 0:
							if _, err := jp.BrowseFeed(uid, 2); err != nil {
								t.Errorf("browse: %v", err)
							}
						case 1:
							if err := jp.LikePage(uid, fmt.Sprintf("page-%d-%d", g, i)); err != nil {
								t.Errorf("like: %v", err)
							}
							if _, err := jp.AdPreferences(uid); err != nil {
								t.Errorf("preferences: %v", err)
							}
						case 2:
							if _, err := jp.CreateAudience("conc-adv", audience.Def{Kind: audience.KindEngagement, Name: fmt.Sprintf("aud-%d-%d", g, i), Page: "page-x"}); err != nil {
								t.Errorf("audience: %v", err)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if !journaled {
				if got := len(jp.State().Audiences.Audiences); got != goroutines*perG/3 {
					t.Fatalf("platform holds %d audiences, want %d", got, goroutines*perG/3)
				}
				return
			}
			wantOps := uint64(1 + goroutines*perG)
			if got := jp.LastLSN(); got != wantOps {
				t.Fatalf("journal has %d ops, want %d", got, wantOps)
			}
			want := marshalState(t, jp.State())
			if err := jp.Close(); err != nil {
				t.Fatal(err)
			}
			jp2 := mustOpenJournaled(t, dir, journal.Options{}, noBoot(t))
			defer jp2.Close()
			if got := marshalState(t, jp2.State()); !bytes.Equal(want, got) {
				t.Fatal("recovered state differs after concurrent mutations")
			}
		})
	}
}

// TestJournaledFreshBootWritesSnapshot checks the zero-state invariants:
// boot runs once, a snapshot exists immediately, and reopening an empty
// (but initialized) journal does not re-run boot.
func TestJournaledFreshBootWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	boots := 0
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, func() (*Platform, error) {
		boots++
		return journalBoot()
	})
	if boots != 1 {
		t.Fatalf("boot ran %d times, want 1", boots)
	}
	want := marshalState(t, jp.State())
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	jp2 := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, noBoot(t))
	defer jp2.Close()
	if got := marshalState(t, jp2.State()); !bytes.Equal(want, got) {
		t.Fatal("reopened boot state differs")
	}
}

// TestJournaledCompactIsLossless compacts after every few ops and checks
// the final recovery still matches a never-compacted reference run.
func TestJournaledCompactIsLossless(t *testing.T) {
	dir := t.TempDir()
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true, SegmentBytes: 256}, journalBoot)
	ref, err := journalBoot()
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range journalScript(t) {
		step(jp)
		step(ref)
		if i%4 == 3 {
			if _, err := jp.Compact(); err != nil {
				t.Fatalf("compact after op %d: %v", i, err)
			}
		}
	}
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	jp2 := mustOpenJournaled(t, dir, journal.Options{NoSync: true, SegmentBytes: 256}, noBoot(t))
	defer jp2.Close()
	if got, want := marshalState(t, jp2.State()), exactState(t, ref); !bytes.Equal(got, want) {
		t.Fatal("repeatedly compacted journal recovered to a different state than the uncompacted reference")
	}
}

type goldenRecord struct {
	rec    opRecord
	golden string
}

// goldenRecords is one journaled record per op with the exact bytes it
// marshals to. These bytes are the on-disk journal format AND what an
// owner ships to its followers, so a change here is a format break: a
// journal written by an older build would no longer recover, and a mixed-
// version replica chain would desync.
func goldenRecords(t testing.TB) map[string]goldenRecord {
	t.Helper()
	key, err := pii.HashEmail("ju03@example.com")
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New("gu-1")
	pr.SetCountry("US")
	pr.AgeYrs = 31
	st := pr.Snapshot()
	params := campaignParamsToState(CampaignParams{
		Spec:         audience.Spec{Include: []audience.AudienceID{"aud-000001"}, Exclude: []audience.AudienceID{"aud-000002"}},
		BidCapCPM:    money.FromDollars(2),
		Creative:     ad.Creative{Headline: "h", Body: "b"},
		FrequencyCap: 3,
		Budget:       money.FromDollars(50),
	})
	chunk := MigrationChunk{Profiles: []profile.State{st}}
	return map[string]goldenRecord{
		opAddUser:            {opRecord{Op: opAddUser, Profile: &st}, goldenAddUser},
		opRegisterAdvertiser: {opRecord{Op: opRegisterAdvertiser, Name: "acme"}, `{"op":"register_advertiser","name":"acme"}`},
		opCreateCampaign:     {opRecord{Op: opCreateCampaign, Advertiser: "acme", Params: &params}, goldenCreateCampaign},
		opPauseCampaign:      {opRecord{Op: opPauseCampaign, Advertiser: "acme", Campaign: "camp-000001"}, `{"op":"pause_campaign","advertiser":"acme","campaign":"camp-000001"}`},
		opPIIAudience:        {opRecord{Op: opPIIAudience, Advertiser: "acme", Name: "list", Keys: []pii.MatchKey{key}}, goldenPIIAudience},
		opWebsiteAudience:    {opRecord{Op: opWebsiteAudience, Advertiser: "acme", Name: "web", Pixel: "px-000001"}, `{"op":"website_audience","advertiser":"acme","name":"web","pixel":"px-000001"}`},
		opAffinityAudience:   {opRecord{Op: opAffinityAudience, Advertiser: "acme", Name: "aff", Phrases: []string{"salsa"}}, `{"op":"affinity_audience","advertiser":"acme","name":"aff","phrases":["salsa"]}`},
		opLookalikeAudience:  {opRecord{Op: opLookalikeAudience, Advertiser: "acme", Name: "look", Seed: "aud-000001", Overlap: 0.5}, `{"op":"lookalike_audience","advertiser":"acme","name":"look","seed":"aud-000001","overlap":0.5}`},
		opEngagementAudience: {opRecord{Op: opEngagementAudience, Advertiser: "acme", Name: "eng", Page: "page-w"}, `{"op":"engagement_audience","advertiser":"acme","name":"eng","page":"page-w"}`},
		opIssuePixel:         {opRecord{Op: opIssuePixel, Advertiser: "acme"}, `{"op":"issue_pixel","advertiser":"acme"}`},
		opBrowse:             {opRecord{Op: opBrowse, User: "gu-1", Slots: 5}, `{"op":"browse","user":"gu-1","slots":5}`},
		opVisitPage:          {opRecord{Op: opVisitPage, User: "gu-1", Pixel: "px-000001"}, `{"op":"visit_page","user":"gu-1","pixel":"px-000001"}`},
		opLikePage:           {opRecord{Op: opLikePage, User: "gu-1", Page: "page-w"}, `{"op":"like_page","user":"gu-1","page":"page-w"}`},
		opUnlikePage:         {opRecord{Op: opUnlikePage, User: "gu-1", Page: "page-w"}, `{"op":"unlike_page","user":"gu-1","page":"page-w"}`},
		opImportUsers:        {opRecord{Op: opImportUsers, Chunk: &chunk}, goldenImportUsers},
		opRemoveUsers:        {opRecord{Op: opRemoveUsers, Users: []profile.UserID{"gu-1", "gu-2"}}, `{"op":"remove_users","users":["gu-1","gu-2"]}`},
	}
}

const (
	goldenAddUser        = `{"op":"add_user","profile":{"id":"gu-1","age":31,"nation":"US"}}`
	goldenCreateCampaign = `{"op":"create_campaign","advertiser":"acme","params":{"include":["aud-000001"],"exclude":["aud-000002"],"bid_cap_cpm":2000000,"creative":{"Headline":"h","Body":"b","LandingURL":"","LandingBody":"","ImagePNG":null},"frequency_cap":3,"budget":50000000}}`
	goldenPIIAudience    = `{"op":"pii_audience","advertiser":"acme","name":"list","keys":[{"Type":0,"Hash":"32f3536069e8cffd99a1a9526cef1f3be530860dc992fcce0178829a769aad53"}]}`
	goldenImportUsers    = `{"op":"import_users","chunk":{"profiles":[{"id":"gu-1","age":31,"nation":"US"}]}}`
)

// TestOpRecordGoldenBytes pins the journal / shipping record format: each
// op's record marshals to its golden bytes, and the golden bytes decode
// and re-encode to themselves (what recovery and followers read is what
// the owner wrote).
func TestOpRecordGoldenBytes(t *testing.T) {
	for op, c := range goldenRecords(t) {
		got, err := json.Marshal(c.rec)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if string(got) != c.golden {
			t.Errorf("%s record format changed:\n got %s\nwant %s", op, got, c.golden)
		}
		var back opRecord
		if err := json.Unmarshal([]byte(c.golden), &back); err != nil {
			t.Errorf("%s: decoding golden bytes: %v", op, err)
			continue
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if string(again) != c.golden {
			t.Errorf("%s golden bytes do not round-trip:\n got %s\nwant %s", op, again, c.golden)
		}
	}
}

// TestEveryOpHasApplyCase reads the op constants out of journaled.go and
// requires each to have a golden record and an applyRecord case: an op
// that can be journaled but not replayed would make its journal
// unrecoverable.
func TestEveryOpHasApplyCase(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "journaled.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]string) // constant name -> op string
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if i >= len(vs.Values) {
				break
			}
			lit, isLit := vs.Values[i].(*ast.BasicLit)
			if strings.HasPrefix(name.Name, "op") && isLit && lit.Kind == token.STRING {
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				ops[name.Name] = v
			}
		}
		return true
	})
	if len(ops) < 16 {
		t.Fatalf("found only %d op constants in journaled.go: %v", len(ops), ops)
	}
	golden := goldenRecords(t)
	p, err := journalBoot()
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range ops {
		c, ok := golden[op]
		if !ok {
			t.Errorf("%s (%q) has no golden record", name, op)
			continue
		}
		var rec opRecord
		if err := json.Unmarshal([]byte(c.golden), &rec); err != nil {
			t.Fatal(err)
		}
		if _, err := applyRecord(p.comp.Load(), 1, &rec); err != nil && strings.Contains(err.Error(), "unknown op") {
			t.Errorf("%s (%q) has no applyRecord case: %v", name, op, err)
		}
	}
	if _, err := applyRecord(p.comp.Load(), 1, &opRecord{Op: "no_such_op"}); err == nil {
		t.Error("applyRecord accepted an unknown op")
	}
}
