package main

import (
	"context"
	"flag"
	"io"
	"log"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
)

func parseForTest(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("adplatformd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	return o
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the validation error; "" = valid
	}{
		{name: "defaults", args: nil},
		{name: "sharded", args: []string{"-shards", "4"}},
		{name: "sharded journaled", args: []string{"-shards", "4", "-journal", "j"}},
		{name: "zero durations are valid", args: []string{"-compact-every", "0s"}},
		{name: "zero users", args: []string{"-users", "0"}},
		{name: "load and save single shard", args: []string{"-load", "a.json", "-save", "b.json"}},

		{name: "zero shards", args: []string{"-shards", "0"}, wantErr: "-shards must be at least 1"},
		{name: "negative shards", args: []string{"-shards", "-2"}, wantErr: "-shards must be at least 1"},
		{name: "negative users", args: []string{"-users", "-1"}, wantErr: "-users must not be negative"},
		{name: "negative ban-after", args: []string{"-ban-after", "-1"}, wantErr: "-ban-after must not be negative"},
		{name: "negative compact interval", args: []string{"-compact-every", "-1s"}, wantErr: "-compact-every must not be negative"},
		{name: "load with shards", args: []string{"-shards", "2", "-load", "a.json"}, wantErr: "single-shard only"},
		{name: "save with shards", args: []string{"-shards", "2", "-save", "b.json"}, wantErr: "single-shard only"},

		{name: "shard node", args: []string{"-shard-serve", "-shard-index", "1", "-shard-count", "3"}},
		{name: "journaled shard node", args: []string{"-shard-serve", "-shard-count", "2", "-journal", "j"}},
		{name: "router", args: []string{"-peers", "a:1,b:2,c:3", "-rpc-secret", "s"}},
		{name: "router with hedging", args: []string{"-peers", "a:1", "-hedge-after", "5ms"}},

		{name: "shard node and router", args: []string{"-shard-serve", "-peers", "a:1"}, wantErr: "mutually exclusive"},
		{name: "shard node zero count", args: []string{"-shard-serve", "-shard-count", "0"}, wantErr: "-shard-count must be at least 1"},
		{name: "shard index out of range", args: []string{"-shard-serve", "-shard-index", "3", "-shard-count", "3"}, wantErr: "-shard-index must be in [0, 3)"},
		{name: "shard node with in-process shards", args: []string{"-shard-serve", "-shard-count", "2", "-shards", "4"}, wantErr: "exactly one shard"},
		{name: "shard node with snapshot", args: []string{"-shard-serve", "-shard-count", "2", "-save", "s.json"}, wantErr: "do not apply to shard nodes"},
		{name: "shard node with public auth", args: []string{"-shard-serve", "-shard-count", "2", "-auth"}, wantErr: "-rpc-secret"},
		{name: "router with replica groups", args: []string{"-peers", "a:1/a2:1,b:1", "-rpc-secret", "s"}},
		{name: "gated shard node", args: []string{"-shard-serve", "-shard-count", "2", "-advertise", "a:1"}},
		{name: "replicating shard node", args: []string{"-shard-serve", "-shard-count", "2", "-journal", "j", "-replicate", "f:1"}},
		{name: "advertise without shard-serve", args: []string{"-advertise", "a:1"}, wantErr: "-advertise only applies with -shard-serve"},
		{name: "replicate without shard-serve", args: []string{"-replicate", "f:1"}, wantErr: "-replicate only applies with -shard-serve"},
		{name: "replicate without journal", args: []string{"-shard-serve", "-shard-count", "2", "-replicate", "f:1"}, wantErr: "-replicate requires -journal"},
		{name: "router with in-process shards", args: []string{"-peers", "a:1", "-shards", "2"}, wantErr: "mutually exclusive"},
		{name: "router with journal", args: []string{"-peers", "a:1", "-journal", "j"}, wantErr: "state lives on the shard nodes"},
		{name: "router zero rpc timeout", args: []string{"-peers", "a:1", "-rpc-timeout", "0s"}, wantErr: "-rpc-timeout must be positive"},
		{name: "router negative hedge", args: []string{"-peers", "a:1", "-hedge-after", "-1ms"}, wantErr: "-hedge-after must not be negative"},
		{name: "router negative peer wait", args: []string{"-peers", "a:1", "-peer-wait", "-1s"}, wantErr: "-peer-wait must not be negative"},

		{name: "gateway", args: []string{"-gateway", "-keys", "k.json"}},
		{name: "gateway with usage journal", args: []string{"-gateway", "-keys", "k.json", "-usage-journal", "u"}},
		{name: "gateway on a router", args: []string{"-peers", "a:1", "-gateway", "-keys", "k.json"}},

		{name: "gateway without keys", args: []string{"-gateway"}, wantErr: "-gateway requires -keys"},
		{name: "keys without gateway", args: []string{"-keys", "k.json"}, wantErr: "-keys only applies with -gateway"},
		{name: "usage journal without gateway", args: []string{"-usage-journal", "u"}, wantErr: "-usage-journal only applies with -gateway"},
		{name: "gateway zero inflight", args: []string{"-gateway", "-keys", "k.json", "-gateway-inflight", "0"}, wantErr: "-gateway-inflight must be positive"},
		{name: "gateway on a shard node", args: []string{"-shard-serve", "-shard-count", "2", "-gateway", "-keys", "k.json"}, wantErr: "shard nodes serve only the internal RPC surface"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parseForTest(t, tc.args...).validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted %v, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseFlagDefaults(t *testing.T) {
	o := parseForTest(t)
	if o.Shards != 1 || o.Users != 1000 || o.Seed != 1 || o.Addr != ":8080" {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.CompactEvery != 5*time.Minute {
		t.Fatalf("unexpected duration defaults: %+v", o)
	}
	if err := o.validate(); err != nil {
		t.Fatalf("defaults fail validation: %v", err)
	}
}

// TestOpenBackendSharded boots a 3-shard in-memory backend and checks the
// population is fully partitioned: the union over shards equals the
// single-shard population.
func TestOpenBackendSharded(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	single := parseForTest(t, "-users", "120")
	sharded := parseForTest(t, "-users", "120", "-shards", "3")

	sn, err := openBackend(single, logger)
	if err != nil {
		t.Fatal(err)
	}
	sb := sn.backend
	if sn.journaled != nil || sn.compactor != nil {
		t.Fatal("plain single-shard backend reported a journal")
	}
	cn, err := openBackend(sharded, logger)
	if err != nil {
		t.Fatal(err)
	}
	cb := cn.backend
	want := sb.Users()
	got := cb.Users()
	if len(got) != len(want) {
		t.Fatalf("sharded population has %d users, single-shard has %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for _, id := range got {
		seen[string(id)] = true
	}
	for _, id := range want {
		if !seen[string(id)] {
			t.Fatalf("user %s missing from sharded population", id)
		}
	}
}

// TestSaveResumesAuctionStream: -save on an un-journaled server records the
// delivery RNG's current state, so a server restored with -load goes on
// browsing exactly as the saved one does. A save that records a fresh seed
// instead makes every -save/-load cycle replay the same stream.
func TestSaveResumesAuctionStream(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	path := filepath.Join(t.TempDir(), "state.json")
	orig, err := openBackend(parseForTest(t, "-users", "20"), logger)
	if err != nil {
		t.Fatal(err)
	}
	b := orig.backend
	if err := b.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	// The default bid wins about half of the slots: which ones is the
	// auction stream.
	if _, err := b.CreateCampaign("acme", platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(0, 200)")},
		BidCapCPM: money.FromDollars(2),
		Creative:  ad.Creative{Headline: "h", Body: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	users := b.Users()
	for _, u := range users[:5] {
		if _, err := b.BrowseFeedCtx(ctx, u, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.save(path); err != nil {
		t.Fatal(err)
	}

	restored, err := openBackend(parseForTest(t, "-users", "20", "-load", path), logger)
	if err != nil {
		t.Fatal(err)
	}
	shown := 0
	for _, u := range users {
		want, err := b.BrowseFeedCtx(ctx, u, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.backend.BrowseFeedCtx(ctx, u, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("browse of %s after -save/-load won slots %v, the saved server's won %v", u, wonSlots(got), wonSlots(want))
		}
		shown += len(want)
	}
	if shown == 0 || shown == 10*len(users) {
		t.Fatalf("%d impressions in %d slots: the auctions decided nothing", shown, 10*len(users))
	}
}

func wonSlots(imps []ad.Impression) []int {
	out := make([]int, len(imps))
	for i, imp := range imps {
		out[i] = imp.Slot
	}
	return out
}

// TestOpenBackendJournaledShards boots a sharded journaled backend twice:
// the second open must recover (not re-boot) and still serve the same
// population, and per-shard journal directories must exist.
func TestOpenBackendJournaledShards(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	dir := t.TempDir()
	opts := parseForTest(t, "-users", "60", "-shards", "2", "-journal", dir)

	n1, err := openBackend(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	b1 := n1.backend
	if n1.compactor == nil {
		t.Fatal("journaled cluster backend has no compactor")
	}
	if err := b1.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	n := len(b1.Users())
	if c, ok := b1.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	n2, err := openBackend(opts, logger)
	if err != nil {
		t.Fatalf("reopening journaled shards: %v", err)
	}
	b2 := n2.backend
	if got := len(b2.Users()); got != n {
		t.Fatalf("recovered %d users, want %d", got, n)
	}
	// The advertiser registration was journaled on every shard: a second
	// registration must be refused consistently, not diverge.
	if err := b2.RegisterAdvertiser("adv"); err == nil {
		t.Fatal("duplicate advertiser accepted after recovery")
	} else if strings.Contains(err.Error(), "diverged") {
		t.Fatalf("shards recovered inconsistently: %v", err)
	}
	if c, ok := b2.(io.Closer); ok {
		c.Close()
	}
}
