package cluster_test

// Tests for the replicated-mutation fan-out: every owner is issued the
// mutation before any is waited for, concurrent mutations still reach every
// shard in one order, a divergence names every drifted shard and starves
// none, and a 1-slot cluster pays for no goroutine.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
)

// hookedShard is a member that calls entered at the top of every
// CreateCampaign, on the goroutine the coordinator runs it on.
type hookedShard struct {
	cluster.Shard
	entered func()
}

func (s hookedShard) CreateCampaign(advertiser string, params platform.CampaignParams) (string, error) {
	s.entered()
	return s.Shard.CreateCampaign(advertiser, params)
}

func campaignNamed(headline string) platform.CampaignParams {
	return platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(18, 80)")},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: headline, Body: "body"},
	}
}

// Shard 0's CreateCampaign does not return until shard 1's has been entered:
// a coordinator that waits for one owner before issuing to the next never
// gets there.
func TestReplicateIssuesToAllOwnersBeforeWaiting(t *testing.T) {
	entered1 := make(chan struct{})
	giveUp := make(chan struct{})
	defer close(giveUp)
	members := memShards(t, platform.New(platform.Config{Seed: 1}), platform.New(platform.Config{Seed: 2}))
	s0 := hookedShard{members[0], func() {
		select {
		case <-entered1:
		case <-giveUp:
		}
	}}
	s1 := hookedShard{members[1], func() { close(entered1) }}
	// Workers bounds gathers, whose shard calls are CPU work for this
	// process; a replicated mutation's are waits, and all overlap.
	c, err := cluster.New([]cluster.Shard{s0, s1}, cluster.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.CreateCampaign("adv", campaignNamed("fan-out"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CreateCampaign did not return: shard 1 was not issued the mutation while shard 0's was outstanding")
	}
}

// A 1-slot cluster runs the mutation on the caller's goroutine.
func TestReplicateOneSlotSpawnsNoGoroutine(t *testing.T) {
	onCaller := false
	s := hookedShard{memShards(t, platform.New(platform.Config{Seed: 1}))[0], func() {
		buf := make([]byte, 16<<10)
		onCaller = strings.Contains(string(buf[:runtime.Stack(buf, false)]), "TestReplicateOneSlotSpawnsNoGoroutine")
	}}
	c, err := cluster.New([]cluster.Shard{s}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCampaign("adv", campaignNamed("one slot")); err != nil {
		t.Fatal(err)
	}
	if !onCaller {
		t.Fatal("the only slot's mutation ran on a goroutine other than the caller's")
	}
}

// Concurrent advertisers against journaled shards: the fan-out overlaps the
// shards' commits, never two mutations, so every shard mints every campaign
// ID for the same campaign.
func TestConcurrentAdvertiserMutationsKeepOneOrder(t *testing.T) {
	const (
		shards     = 3
		goroutines = 8
		perG       = 50
	)
	c, jps, _ := newElasticCluster(t, shards, 9)
	if err := c.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	created := make(map[string]string) // campaign ID → headline, as the cluster answered
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				headline := fmt.Sprintf("g%d-i%02d", g, i)
				id, err := c.CreateCampaign("adv", campaignNamed(headline))
				if err != nil {
					t.Errorf("CreateCampaign %s: %v", headline, err)
					return
				}
				mu.Lock()
				created[id] = headline
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(created) != goroutines*perG {
		t.Fatalf("%d distinct campaign IDs for %d creates", len(created), goroutines*perG)
	}
	for i, jp := range jps {
		campaigns := jp.State().Pipeline.Campaigns
		if len(campaigns) != len(created) {
			t.Fatalf("shard %d holds %d campaigns, want %d", i, len(campaigns), len(created))
		}
		for _, cs := range campaigns {
			if want := created[cs.ID]; cs.Creative.Headline != want {
				t.Fatalf("shard %d: %s is campaign %q, the cluster answered %q", i, cs.ID, cs.Creative.Headline, want)
			}
		}
	}
}

// Shards 1 and 3 of four have drifted: the error names both, and shard 2,
// which sits behind the first drifted shard, was still sent the mutation.
func TestClusterDivergenceNamesEveryShard(t *testing.T) {
	ps := make([]*platform.Platform, 4)
	for i := range ps {
		ps[i] = platform.New(platform.Config{Seed: uint64(i + 1)})
	}
	for _, i := range []int{1, 3} {
		if err := ps[i].RegisterAdvertiser("drift"); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	c, err := cluster.New(memShards(t, ps...), cluster.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	err = c.RegisterAdvertiser("drift") // succeeds on 0 and 2, refused on 1 and 3
	if err == nil {
		t.Fatal("divergence not reported")
	}
	for _, want := range []string{"diverged", "shard 1 returned", "shard 3 returned", "shard 0 returned <nil>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "shard 2") {
		t.Errorf("error %q names shard 2, which agreed with shard 0", err)
	}
	if n := reg.Counter("cluster_replication_divergence_total", "").Value(); n != 1 {
		t.Errorf("divergence counted %d times for one mutation", n)
	}
	if err := ps[2].RegisterAdvertiser("drift"); err == nil {
		t.Error("shard 2 never received the mutation: registering the advertiser on it again succeeded")
	}
}
