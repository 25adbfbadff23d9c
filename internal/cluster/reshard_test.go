package cluster_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
)

// reshardMember is one cluster member as the property test sees it: the
// handle the cluster drives, and the journaled platform behind it for
// direct inspection.
type reshardMember struct {
	shard cluster.Shard
	jp    *platform.Journaled
}

// openFlatMarketShard boots an empty journaled shard whose auctions clear
// at a fixed price (Sigma 0), so a user's feed, frequency counts and
// billing rows do not depend on which shard's RNG stream served them —
// the precondition for comparing per-user state across cluster shapes.
func openFlatMarketShard(t *testing.T, dir string, seed uint64) *platform.Journaled {
	t.Helper()
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.10)}
	jp, err := platform.OpenJournaled(dir, journal.Options{NoSync: true}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: seed, Market: &market}), nil
	})
	if err != nil {
		t.Fatalf("OpenJournaled(%s): %v", dir, err)
	}
	t.Cleanup(func() { jp.Close() })
	return jp
}

// memberKinds are the two implementations of the member contract the
// reshard driver must treat alike.
var memberKinds = []struct {
	name string
	open func(t *testing.T, dir string, seed uint64) reshardMember
}{
	{"in-process", func(t *testing.T, dir string, seed uint64) reshardMember {
		jp := openFlatMarketShard(t, dir, seed)
		return reshardMember{shard: jp, jp: jp}
	}},
	{"loopback", func(t *testing.T, dir string, seed uint64) reshardMember {
		jp := openFlatMarketShard(t, dir, seed)
		_, url := serveNode(t, jp, elasticSecret)
		cl := rpc.NewClient(url, rpc.Options{Secret: elasticSecret})
		t.Cleanup(cl.Close)
		return reshardMember{shard: cluster.NewRemoteShard(cl), jp: jp}
	}},
}

// holders maps every user to the members that hold state for it.
func holders(members []reshardMember) map[profile.UserID][]int {
	held := make(map[profile.UserID][]int)
	for i, m := range members {
		for _, u := range m.jp.Users() {
			held[u] = append(held[u], i)
		}
	}
	return held
}

// userStates renders each user's movable state (profile, feed, frequency
// and slot counters, pixel visits, seed memberships, billing rows) as the
// owning member exports it.
func userStates(t *testing.T, c *cluster.Cluster, members []reshardMember, users []profile.UserID) map[profile.UserID]string {
	t.Helper()
	out := make(map[profile.UserID]string, len(users))
	for _, u := range users {
		chunk, err := members[c.Owner(u)].jp.ExportUsers([]profile.UserID{u})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(chunk)
		if err != nil {
			t.Fatal(err)
		}
		out[u] = string(raw)
	}
	return out
}

// TestReshardMovesExactlyTheReownedUsers walks one cluster through the
// sizes 1→2→3→2→1 with the unified reshard driver and checks, after every
// step and for both member kinds: the users that changed members are
// exactly the users whose ring owner changed; every user sits on exactly
// one member, the one the ring names; and each user's state is
// byte-identical to its state in a cluster that was built at that size
// and never resharded.
func TestReshardMovesExactlyTheReownedUsers(t *testing.T) {
	const nUsers = 60
	for _, kind := range memberKinds {
		t.Run(kind.name, func(t *testing.T) {
			root := t.TempDir()
			open := func(name string, i int) reshardMember {
				return kind.open(t, filepath.Join(root, name), stats.SubSeed(97, uint64(i)))
			}

			// Reference clusters, one per size, populated identically and
			// never resharded.
			want := make(map[int]map[profile.UserID]string)
			for size := 1; size <= 3; size++ {
				members := make([]reshardMember, size)
				shards := make([]cluster.Shard, size)
				for i := range members {
					members[i] = open(fmt.Sprintf("ref%d-%d", size, i), i)
					shards[i] = members[i].shard
				}
				ref, err := cluster.New(shards, cluster.Options{})
				if err != nil {
					t.Fatal(err)
				}
				users, _ := populateElastic(t, ref, nUsers)
				want[size] = userStates(t, ref, members, users)
			}

			pool := []reshardMember{open("m0", 0), open("m1", 1), open("m2", 2)}
			c, err := cluster.New([]cluster.Shard{pool[0].shard}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			users, _ := populateElastic(t, c, nUsers)

			for step, size := range []int{2, 3, 2, 1} {
				before := holders(pool)
				oldRing := c.Ring()
				var rep cluster.ReshardReport
				if size > c.Shards() {
					rep, err = c.AddShard(pool[size-1].shard)
				} else {
					rep, err = c.RemoveShard()
				}
				if err != nil {
					t.Fatalf("step %d (to %d shards): %v", step, size, err)
				}
				after := holders(pool)
				moved := 0
				for _, u := range users {
					owner := c.Ring().Owner(string(u))
					if got := after[u]; len(got) != 1 || got[0] != owner {
						t.Fatalf("step %d: user %s held by members %v, ring owner is %d", step, u, got, owner)
					}
					reowned := oldRing.Owner(string(u)) != owner
					if changed := before[u][0] != after[u][0]; changed != reowned {
						t.Fatalf("step %d: user %s moved=%v but ring owner changed=%v", step, u, changed, reowned)
					}
					if reowned {
						moved++
					}
				}
				if moved == 0 || rep.UsersMoved != moved {
					t.Fatalf("step %d: report says %d users moved, %d changed ring owner", step, rep.UsersMoved, moved)
				}
				got := userStates(t, c, pool, users)
				for _, u := range users {
					if got[u] != want[size][u] {
						t.Fatalf("step %d: user %s state differs from a cluster built at %d shards:\n got %s\nwant %s",
							step, u, size, got[u], want[size][u])
					}
				}
			}
		})
	}
}
