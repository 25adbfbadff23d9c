package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// loadedPlatform is buildRichPlatform — users with likes, a pixel visit,
// every audience kind including a lookalike, feeds, billing rows, a paused
// campaign — plus a campaign that has spent its budget.
func loadedPlatform(t *testing.T) *Platform {
	t.Helper()
	p := buildRichPlatform(t)
	budget := money.FromDollars(0.004)
	spent, err := p.CreateCampaign("adv-a", CampaignParams{
		Spec:         audience.Spec{},
		BidCapCPM:    money.FromDollars(10),
		Creative:     ad.Creative{Headline: "<b>", Body: "spent & done\u2028"},
		FrequencyCap: 50,
		Budget:       budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BrowseFeed("u03", 40); err != nil {
		t.Fatal(err)
	}
	if got := p.comp.Load().ledger.TrueSpend(spent); got < budget {
		t.Fatalf("premise: %s spent %v of its %v budget", spent, got, budget)
	}
	return p
}

// generatedSlot is a platform holding the 600 of 1 200 generated users whose
// IDs end in an even digit, as a shard holds its slot's users.
func generatedSlot(t *testing.T) *Platform {
	t.Helper()
	p := New(Config{Seed: 3})
	cfg := workload.DefaultConfig()
	cfg.Users = 1200
	cfg.Seed = 11
	cfg.Catalog = p.Catalog()
	workload.EachKept(cfg, func(id profile.UserID) bool { return id[len(id)-1]%2 == 0 }, func(u *profile.Profile) {
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	})
	if n := p.comp.Load().store.Len(); n != 600 {
		t.Fatalf("premise: the slot holds %d users, want 600", n)
	}
	return p
}

// TestSnapshotStreamIsTheSameDocument holds the stream codec to its two
// oracles: WriteSnapshot, and Compact encoding a live platform, emit
// json.Marshal's bytes, and ReadSnapshot of that document — compact, or
// indented as earlier builds wrote it — returns what json.Unmarshal returns.
func TestSnapshotStreamIsTheSameDocument(t *testing.T) {
	loaded := loadedPlatform(t)
	states := map[string]State{
		"empty platform":  New(Config{}).State(),
		"loaded platform": loaded.State(),
		"zero State":      {},
		// Empty is not nil: one is "[]", the other null or left out.
		"empty slices": {Profiles: []profile.State{}, Advertisers: []string{}, Pipeline: delivery.State{Feeds: []delivery.FeedState{}}},
	}
	pr12, err := os.ReadFile("testdata/state_pr12.json")
	if err != nil {
		t.Fatal(err)
	}
	var fromPR12 State
	if err := json.Unmarshal(pr12, &fromPR12); err != nil {
		t.Fatal(err)
	}
	states["testdata/state_pr12.json"] = fromPR12
	dir := t.TempDir()
	copyFile(t, dir+"/snap-0000000000000018.db", nil, "testdata/journal_pr14")
	copyFile(t, dir+"/wal-0000000000000001.log", nil, "testdata/journal_pr14")
	jp := mustOpenJournaled(t, dir, journal.Options{NoSync: true}, noBoot(t))
	states["testdata/journal_pr14"] = jp.State()

	// Compact takes the profiles from the live store instead of a State.
	boot := func(p *Platform) *Journaled {
		return mustOpenJournaled(t, t.TempDir(), journal.Options{NoSync: true}, func() (*Platform, error) { return p, nil })
	}
	live := map[string]*Journaled{
		"empty platform":        boot(New(Config{})),
		"loaded platform":       boot(loaded),
		"testdata/journal_pr14": jp,
		"generated slot":        boot(generatedSlot(t)),
	}
	for name, jp := range live {
		t.Run(name+", compacted", func(t *testing.T) {
			want, err := json.Marshal(jp.State())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jp.Compact(); err != nil {
				t.Fatal(err)
			}
			snap, _, err := jp.j.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(snap)
			snap.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Compact wrote %d bytes, json.Marshal %d; from byte %d:\n got %.200s\nwant %.200s", len(got), len(want), i, got[i:], want[i:])
			}
		})
		jp.Close()
	}

	sameAsUnmarshal := func(t *testing.T, doc []byte) {
		t.Helper()
		var want State
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadSnapshot differs from json.Unmarshal:\n got %+v\nwant %+v", got, want)
		}
	}
	for name, s := range states {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := marshalState(t, s); !bytes.Equal(got, want) {
				t.Fatalf("WriteSnapshot differs from json.Marshal:\n got %s\nwant %s", got, want)
			}
			sameAsUnmarshal(t, want)
			var indented bytes.Buffer
			if err := json.Indent(&indented, want, "", " "); err != nil {
				t.Fatal(err)
			}
			sameAsUnmarshal(t, indented.Bytes())
		})
	}
	// The fixture itself carries a key ("freq") no State field has.
	sameAsUnmarshal(t, pr12)
}

// TestReadSnapshotFollowsUnmarshal pins the corners of json.Unmarshal the
// token walk has to reproduce by hand, on documents no encoder writes.
func TestReadSnapshotFollowsUnmarshal(t *testing.T) {
	for _, doc := range []string{
		`null`,
		`{}`,
		` {"version":1} ` + "\n",
		`{"VERSION":3,"Next_Campaign":4,"ſeed":5,"market":{"basecpm":7}}`,
		`{"version":1,"version":2,"market":{"BaseCPM":1},"market":{"Sigma":2}}`,
		`{"profiles":[{"id":"a","age":5},{"id":"b"}],"profiles":[{"id":"c"}]}`,
		`{"profiles":[{"id":"a"}],"profiles":null,"advertisers":[],"owner":null}`,
		`{"profiles":[null,{"id":"a"}],"pixels":null,"ledger":{"accounts":null}}`,
		`{"unknown":{"a":[1,{"b":null}],"c":1e999},"other":[[],{}],"n":-0.0,"pipeline":{"freq":[{"x":1}],"slots":[{"user":"u","n":2}]}}`,
		`{"pipeline":{"feeds":[{"user":"u","impressions":[{"CampaignID":"c","Slot":1}]}]}}`,
		// Refused by both.
		``, `5`, `"state"`, `[]`, `{"version":1`, `{"version":1}}`, `{"version":1} {}`, `{"version":"one"}`,
		`{"profiles":{}}`, `{"profiles":[1]}`, `{"market":[]}`, `{"market":7}`, `{"pipeline":{"feeds":{}}}`,
		`{"profiles":[{"id":"a"},]}`, `{"version":1,}`, `{"version" 1}`, `{version:1}`, `{"seed":-1}`, `{"seed":1e999}`,
	} {
		var want State
		wantErr := json.Unmarshal([]byte(doc), &want)
		got, err := ReadSnapshot(strings.NewReader(doc))
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: ReadSnapshot error %v, json.Unmarshal error %v", doc, err, wantErr)
		} else if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", doc, got, want)
		}
	}
}

// sizeWatcher records the largest single Write and Read request made of it.
type sizeWatcher struct {
	buf              bytes.Buffer
	maxWrite, maxAsk int
}

func (w *sizeWatcher) Write(p []byte) (int, error) {
	w.maxWrite = max(w.maxWrite, len(p))
	return w.buf.Write(p)
}

func (w *sizeWatcher) Read(p []byte) (int, error) {
	w.maxAsk = max(w.maxAsk, len(p))
	return w.buf.Read(p)
}

// TestSnapshotStreamNeverHoldsTheDocument: a state whose document is over
// 8 MiB is written in pieces of at most 1 MiB and read back through requests
// of at most 1 MiB. Marshalling it whole is one Write of the document, and
// reading it whole asks for ever larger pieces of it.
func TestSnapshotStreamNeverHoldsTheDocument(t *testing.T) {
	var s State
	imp := ad.Impression{CampaignID: "camp-000001", Advertiser: "adv", Creative: ad.Creative{Headline: "headline", Body: strings.Repeat("body ", 20)}}
	for i := 0; i < 12000; i++ {
		uid := profile.UserID(fmt.Sprintf("user-%06d", i))
		s.Profiles = append(s.Profiles, profile.State{ID: uid, Age: 30, Nation: "US", Likes: []string{"page-a", "page-b"}, Emails: []string{string(uid) + "@example.com"}})
		s.Pipeline.Feeds = append(s.Pipeline.Feeds, delivery.FeedState{User: uid, Impressions: []ad.Impression{imp, imp, imp}})
		s.Pipeline.Slots = append(s.Pipeline.Slots, delivery.SlotState{User: uid, N: 10})
	}
	var w sizeWatcher
	if err := WriteSnapshot(&w, s); err != nil {
		t.Fatal(err)
	}
	if size := w.buf.Len(); size <= 8<<20 {
		t.Fatalf("premise: the document is %d bytes, want over 8 MiB", size)
	}
	if w.maxWrite > 1<<20 {
		t.Errorf("the largest single Write was %d bytes of a %d-byte document, want at most 1 MiB", w.maxWrite, w.buf.Len())
	}
	got, err := ReadSnapshot(&w)
	if err != nil {
		t.Fatal(err)
	}
	if w.maxAsk > 1<<20 {
		t.Errorf("the largest single Read asked for %d bytes, want at most 1 MiB", w.maxAsk)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("the state read back differs from the one written")
	}
}

// A reader that fails — a snapshot frame that does not verify — fails
// ReadSnapshot even when the document before it was complete.
func TestReadSnapshotReadsToTheEnd(t *testing.T) {
	torn := fmt.Errorf("frame 3: %w", journal.ErrCorrupt)
	_, err := ReadSnapshot(io.MultiReader(strings.NewReader(`{"version":1}`), errReader{torn}))
	if err == nil || !strings.Contains(err.Error(), torn.Error()) {
		t.Fatalf("ReadSnapshot = %v, want the reader's error", err)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// FuzzReadPlatformSnapshot: ReadSnapshot never panics and accepts exactly
// the documents json.Unmarshal into a State accepts, with an equal result.
// Restore of what it reads never panics either, and refuses a state with a
// delivery, billing or pixel row of a user its profiles do not hold; the
// seeds include one of each, on a fixture Restore accepts.
func FuzzReadPlatformSnapshot(f *testing.F) {
	for _, path := range []string{"testdata/state_pr12.json", "testdata/journal_pr14_state.json"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
		var s State
		if err := json.Unmarshal(doc, &s); err != nil {
			f.Fatal(err)
		}
		for _, table := range orphanTables {
			orphaned, err := json.Marshal(orphanRow(s, table))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(orphaned)
		}
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"VERSION":3,"market":{"basecpm":7},"market":{"Sigma":2},"x":{"a":[1e999]}}`))
	f.Add([]byte(`{"profiles":[{"id":"a","age":5},{"id":"b"}],"profiles":[{"id":"c"},null],"owner":[]}`))
	// Slot numbers outside 0…MaxUint32: the reader reads them as any number,
	// delivery.RestoreState is what refuses them.
	for _, n := range []string{"-1", "4294967296"} {
		f.Add([]byte(`{"pipeline":{"feeds":[{"user":"u","impressions":[{"CampaignID":"c","Slot":` + n + `}]}],"slots":[{"user":"u","n":` + n + `}]}}`))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want State
		wantErr := json.Unmarshal(doc, &want)
		got, err := ReadSnapshot(bytes.NewReader(doc))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadSnapshot error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v\nwant %+v", got, want)
		}
		if _, err := Restore(got); err == nil {
			if user, table := orphan(got); user != "" {
				t.Fatalf("Restore accepted a %s row of user %q, whom the state's profiles do not hold", table, user)
			}
		}
	})
}

// orphan returns a user that a delivery, billing or pixel row of s names
// and s's profiles do not hold, and the row's table; "" when there is none.
func orphan(s State) (user profile.UserID, table string) {
	held := make(map[profile.UserID]bool, len(s.Profiles))
	for _, ps := range s.Profiles {
		held[ps.ID] = true
	}
	for _, fs := range s.Pipeline.Feeds {
		if !held[fs.User] {
			return fs.User, "feed"
		}
	}
	for _, ss := range s.Pipeline.Slots {
		if !held[ss.User] {
			return ss.User, "slot counter"
		}
	}
	for _, as := range s.Ledger.Accounts {
		for _, us := range as.Users {
			if !held[us.User] {
				return us.User, "billing"
			}
		}
	}
	for _, px := range s.Pixels.Pixels {
		for _, u := range px.Visitors {
			if !held[u] {
				return u, "pixel"
			}
		}
	}
	return "", ""
}
