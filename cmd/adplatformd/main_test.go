package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

func parseForTest(t testing.TB, args ...string) options {
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
		{name: "load with shards", args: []string{"-shards", "2", "-load", "a.json"}, wantErr: "-load/-save only applies"},
		{name: "save with shards", args: []string{"-shards", "2", "-save", "b.json"}, wantErr: "-load/-save only applies"},

		{name: "shard node", args: []string{"-shard-serve", "-shard-index", "1", "-shard-count", "3"}},
		{name: "journaled shard node", args: []string{"-shard-serve", "-shard-count", "2", "-journal", "j"}},
		{name: "router", args: []string{"-peers", "a:1,b:2,c:3", "-rpc-secret", "s"}},
		{name: "router with hedging", args: []string{"-peers", "a:1", "-hedge-after", "5ms"}},

		{name: "shard node and router", args: []string{"-shard-serve", "-peers", "a:1"}, wantErr: "-peers only applies"},
		{name: "shard node zero count", args: []string{"-shard-serve", "-shard-count", "0"}, wantErr: "-shard-count must be at least 1"},
		{name: "shard index out of range", args: []string{"-shard-serve", "-shard-index", "3", "-shard-count", "3"}, wantErr: "-shard-index must be in [0, 3)"},
		{name: "shard node with in-process shards", args: []string{"-shard-serve", "-shard-count", "2", "-shards", "4"}, wantErr: "-shards only applies"},
		{name: "shard node with snapshot", args: []string{"-shard-serve", "-shard-count", "2", "-save", "s.json"}, wantErr: "-load/-save only applies"},
		{name: "shard node with public auth", args: []string{"-shard-serve", "-shard-count", "2", "-auth"}, wantErr: "-auth only applies"},
		{name: "router with replica groups", args: []string{"-peers", "a:1/a2:1,b:1", "-rpc-secret", "s"}},
		{name: "gated shard node", args: []string{"-shard-serve", "-shard-count", "2", "-advertise", "a:1"}},
		{name: "replicating shard node", args: []string{"-shard-serve", "-shard-count", "2", "-journal", "j", "-replicate", "f:1"}},
		{name: "advertise without shard-serve", args: []string{"-advertise", "a:1"}, wantErr: "-advertise only applies"},
		{name: "replicate without shard-serve", args: []string{"-replicate", "f:1"}, wantErr: "-replicate only applies"},
		{name: "replicate without journal", args: []string{"-shard-serve", "-shard-count", "2", "-replicate", "f:1"}, wantErr: "-replicate requires -journal"},
		{name: "router with in-process shards", args: []string{"-peers", "a:1", "-shards", "2"}, wantErr: "-shards only applies"},
		{name: "router with journal", args: []string{"-peers", "a:1", "-journal", "j"}, wantErr: "-journal only applies"},
		{name: "router zero rpc timeout", args: []string{"-peers", "a:1", "-rpc-timeout", "0s"}, wantErr: "-rpc-timeout must be positive"},
		{name: "router negative hedge", args: []string{"-peers", "a:1", "-hedge-after", "-1ms"}, wantErr: "-hedge-after must not be negative"},
		{name: "router negative peer wait", args: []string{"-peers", "a:1", "-peer-wait", "-1s"}, wantErr: "-peer-wait must not be negative"},
		{name: "router zero peer wait", args: []string{"-peers", "a:1", "-peer-wait", "0"}},
		{name: "router with snapshot", args: []string{"-peers", "a:1", "-load", "a.json"}, wantErr: "-load/-save only applies"},
		{name: "shard node negative peer wait", args: []string{"-shard-serve", "-journal", "d", "-replicate", "f:1", "-peer-wait", "-1s"}, wantErr: "-peer-wait must not be negative"},
		{name: "shard node negative rpc timeout", args: []string{"-shard-serve", "-rpc-timeout", "-1s"}, wantErr: "-rpc-timeout must be positive"},
		{name: "shard node negative hedge", args: []string{"-shard-serve", "-hedge-after", "-1ms"}, wantErr: "-hedge-after must not be negative"},
		{name: "dialer flags unused in single mode", args: []string{"-rpc-timeout", "0s", "-peer-wait", "-1s"}},

		{name: "gateway", args: []string{"-gateway", "-keys", "k.json"}},
		{name: "gateway with usage journal", args: []string{"-gateway", "-keys", "k.json", "-usage-journal", "u"}},
		{name: "gateway on a router", args: []string{"-peers", "a:1", "-gateway", "-keys", "k.json"}},

		{name: "gateway without keys", args: []string{"-gateway"}, wantErr: "-gateway requires -keys"},
		{name: "keys without gateway", args: []string{"-keys", "k.json"}, wantErr: "-keys only applies with -gateway"},
		{name: "usage journal without gateway", args: []string{"-usage-journal", "u"}, wantErr: "-usage-journal only applies with -gateway"},
		{name: "gateway zero inflight", args: []string{"-gateway", "-keys", "k.json", "-gateway-inflight", "0"}, wantErr: "-gateway-inflight must be positive"},
		{name: "gateway on a shard node", args: []string{"-shard-serve", "-shard-count", "2", "-gateway", "-keys", "k.json"}, wantErr: "-gateway only applies"},
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

// bootCase is one mode's row: the flags it boots with, whether it journals,
// the mode they select and the ring slots held here, of ring.
type bootCase struct {
	name    string
	args    []string
	journal bool
	mode    mode
	slots   []int
	ring    int
}

// singlePopulation is the single-mode population of -users 120, which every
// mode's shards split between their slots.
func singlePopulation(t *testing.T) []profile.UserID {
	t.Helper()
	single, err := boot(parseForTest(t, "-users", "120"), log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	return single.members[0].Users()
}

// checkBoot boots one mode and checks what the daemon relies on: the shards
// it holds are its slots' share of the single-mode population, exactly one
// member is served bare (so single mode bypasses the cluster), a compactor
// exists exactly when a journal does, a journaled reopen recovers instead of
// re-booting — a replicated advertiser registration is refused again without
// the shards diverging — and only single mode accepts -save.
func checkBoot(t *testing.T, tc bootCase, population []profile.UserID) {
	t.Helper()
	logger := log.New(io.Discard, "", 0)
	args := tc.args
	dir := filepath.Join(t.TempDir(), "journal")
	if tc.journal {
		args = append(args, "-journal", dir)
	}
	opts := parseForTest(t, args...)
	if err := opts.validate(); err != nil || opts.mode() != tc.mode {
		t.Fatalf("mode %v (validate: %v), want %v", opts.mode(), err, tc.mode)
	}
	saveErr := parseForTest(t, append(args, "-save", "s.json")...).validate()
	if (saveErr == nil) != (tc.mode == modeSingle) {
		t.Fatalf("validate with -save: %v; only single mode holds the one shard a snapshot is", saveErr)
	}

	n, err := boot(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.members) != len(tc.slots) {
		t.Fatalf("%d members, want %d", len(n.members), len(tc.slots))
	}
	clu, isCluster := n.backend.(*cluster.Cluster)
	if isCluster == (len(n.members) == 1) || (len(n.members) == 1 && n.backend != n.members[0]) {
		t.Fatalf("%d members served as %T, want the one member bare and a cluster otherwise", len(n.members), n.backend)
	}
	if (n.compactor != nil) != tc.journal {
		t.Fatalf("compactor %v with journal=%v", n.compactor, tc.journal)
	}
	if (n.admin != nil) != (tc.mode == modeRouter) {
		t.Fatalf("cluster admin %v in %v mode", n.admin, tc.mode)
	}
	if isCluster && clu.Shards() != tc.ring {
		t.Fatalf("cluster over %d slots, want %d", clu.Shards(), tc.ring)
	}
	if tc.mode == modeSingle {
		if err := n.save(filepath.Join(t.TempDir(), "s.json")); err != nil {
			t.Fatalf("save: %v", err)
		}
	}

	// The shards held here are exactly their slots' share of the
	// single population.
	ring := cluster.NewRing(tc.ring, 0)
	want := map[profile.UserID]bool{}
	for _, u := range population {
		for _, s := range tc.slots {
			if tc.ring == 1 || ring.Owner(string(u)) == s {
				want[u] = true
			}
		}
	}
	got := 0
	for _, m := range n.members {
		for _, u := range m.Users() {
			if !want[u] {
				t.Fatalf("user %s held here is not in slots %v of the single population", u, tc.slots)
			}
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("%d users held here, want %d", got, len(want))
	}

	if tc.journal {
		if tc.mode == modeShards {
			for _, s := range tc.slots {
				if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d", s))); err != nil {
					t.Fatalf("journal of shard %d: %v", s, err)
				}
			}
		}
		if err := n.backend.RegisterAdvertiser("adv"); err != nil {
			t.Fatal(err)
		}
		if err := n.backend.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		n, err = boot(opts, logger)
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		recovered := 0
		for _, m := range n.members {
			recovered += len(m.Users())
		}
		if recovered != got {
			t.Fatalf("recovered %d users, want %d", recovered, got)
		}
		// The registration was journaled on every shard: a second
		// one must be refused consistently, not diverge.
		if err := n.backend.RegisterAdvertiser("adv"); err == nil {
			t.Fatal("duplicate advertiser accepted after recovery")
		} else if strings.Contains(err.Error(), "diverged") {
			t.Fatalf("shards recovered inconsistently: %v", err)
		}
	}
	if c, ok := n.backend.(io.Closer); ok {
		c.Close()
	}
}

// TestBoot runs the single, shard-node and router modes through boot.
func TestBoot(t *testing.T) {
	root := t.TempDir()
	nodeA := newMembershipNode(t, filepath.Join(root, "a"), stats.SubSeed(61, 0))
	nodeB := newMembershipNode(t, filepath.Join(root, "b"), stats.SubSeed(61, 1))
	population := singlePopulation(t)
	for _, tc := range []bootCase{
		{name: "single", args: []string{"-users", "120"}, mode: modeSingle, slots: []int{0}, ring: 1},
		{name: "single journaled", args: []string{"-users", "120"}, journal: true, mode: modeSingle, slots: []int{0}, ring: 1},
		{name: "shard node", args: []string{"-users", "120", "-shard-serve", "-shard-index", "1", "-shard-count", "3"}, mode: modeNode, slots: []int{1}, ring: 3},
		{name: "router", args: []string{"-peers", nodeA.addr + "," + nodeB.addr, "-rpc-secret", membershipSecret, "-peer-wait", "10s"}, mode: modeRouter, ring: 2},
	} {
		t.Run(tc.name, func(t *testing.T) { checkBoot(t, tc, population) })
	}
}

// TestOpenBackendSharded: -shards 3 boots an in-process cluster whose three
// shards together hold exactly the single-mode population.
func TestOpenBackendSharded(t *testing.T) {
	checkBoot(t, bootCase{name: "shards", args: []string{"-users", "120", "-shards", "3"}, mode: modeShards, slots: []int{0, 1, 2}, ring: 3}, singlePopulation(t))
}

// TestOpenBackendJournaledShards: -shards 2 -journal writes one shard-NNN
// journal per shard, and a reopen recovers the population and the
// replicated advertiser registrations instead of re-booting.
func TestOpenBackendJournaledShards(t *testing.T) {
	checkBoot(t, bootCase{name: "shards journaled", args: []string{"-users", "120", "-shards", "2"}, journal: true, mode: modeShards, slots: []int{0, 1}, ring: 2}, singlePopulation(t))
}

// TestRouterBootsWithZeroPeerWait: -peer-wait 0 is one probe round, each
// probe bounded by -rpc-timeout. A router over a healthy node boots; one
// over a node that is not there is refused after that round.
func TestRouterBootsWithZeroPeerWait(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	up := newMembershipNode(t, filepath.Join(t.TempDir(), "a"), stats.SubSeed(67, 0))
	n, err := boot(parseForTest(t, "-peers", up.addr, "-rpc-secret", membershipSecret, "-peer-wait", "0"), logger)
	if err != nil {
		t.Fatalf("router with -peer-wait 0 over a healthy node: %v", err)
	}
	clu := n.backend.(*cluster.Cluster)
	t.Cleanup(func() { clu.Close() })
	if clu.Shards() != 1 {
		t.Fatalf("router booted over %d slots, want 1", clu.Shards())
	}

	down := freeAddrs(t, 1)[0]
	start := time.Now()
	if _, err := boot(parseForTest(t, "-peers", down, "-rpc-secret", membershipSecret, "-peer-wait", "0"), logger); err == nil {
		t.Fatal("router with -peer-wait 0 booted over a node that is not there")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusing an absent fleet with -peer-wait 0 took %v", d)
	}
}

// TestSaveResumesAuctionStream: -save on an un-journaled server records the
// delivery RNG's current state, so a server restored with -load goes on
// browsing exactly as the saved one does. A save that records a fresh seed
// instead makes every -save/-load cycle replay the same stream.
func TestSaveResumesAuctionStream(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	path := filepath.Join(t.TempDir(), "state.json")
	orig, err := boot(parseForTest(t, "-users", "20"), logger)
	if err != nil {
		t.Fatal(err)
	}
	b := orig.members[0]
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

	restored, err := boot(parseForTest(t, "-users", "20", "-load", path), logger)
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
