package cluster

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/rpc"
)

func TestRingDeterministic(t *testing.T) {
	a := NewRing(4, 0)
	b := NewRing(4, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user-%06d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("two identical rings disagree on %s", key)
		}
	}
}

func TestRingSingleShardOwnsEverything(t *testing.T) {
	r := NewRing(1, 0)
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("user-%06d", i)); got != 0 {
			t.Fatalf("1-shard ring routed to shard %d", got)
		}
	}
}

func TestRingOwnerInRange(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 8} {
		r := NewRing(shards, 0)
		for i := 0; i < 500; i++ {
			o := r.Owner(fmt.Sprintf("k-%d", i))
			if o < 0 || o >= shards {
				t.Fatalf("shards=%d: owner %d out of range", shards, o)
			}
		}
	}
}

// TestRingBalance checks that sequential user IDs (the workload
// generator's actual keyspace) spread reasonably over the shards — no
// shard starved, none hoarding.
func TestRingBalance(t *testing.T) {
	const users = 20000
	for _, shards := range []int{2, 4, 8} {
		r := NewRing(shards, 0)
		counts := make([]int, shards)
		for i := 0; i < users; i++ {
			counts[r.Owner(fmt.Sprintf("user-%06d", i))]++
		}
		ideal := users / shards
		for s, n := range counts {
			if n < ideal/2 || n > ideal*2 {
				t.Errorf("shards=%d: shard %d owns %d users, ideal %d (counts %v)", shards, s, n, ideal, counts)
			}
		}
	}
}

// TestRingStability checks the consistent-hashing property: growing the
// ring by one shard moves only a fraction of the keys, instead of
// reshuffling nearly everything the way mod-N hashing does.
func TestRingStability(t *testing.T) {
	const users = 10000
	r4, r5 := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	for i := 0; i < users; i++ {
		key := fmt.Sprintf("user-%06d", i)
		if r4.Owner(key) != r5.Owner(key) {
			moved++
		}
	}
	// Ideal movement is 1/5 of keys; allow generous slack but reject the
	// ~4/5 a mod-N scheme would move.
	if moved > users/2 {
		t.Fatalf("adding a 5th shard moved %d/%d keys; consistent hashing should move ~%d", moved, users, users/5)
	}
}

func TestNewRingPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0, 0) did not panic")
		}
	}()
	NewRing(0, 0)
}

// FuzzGateSetRing pushes arbitrary bytes, decoded as a membership in wire
// form, to a shard node's gate: the push is refused, or it is accepted and
// the held ring places every user on one of the pushed slots.
func FuzzGateSetRing(f *testing.F) {
	f.Add([]byte(`{"version":1,"virtual_nodes":0,"shards":[{"addr":"a"}]}`))
	f.Add([]byte(`{"version":3,"virtual_nodes":8,"shards":[{"addr":"a"},{"addr":"b","replicas":["c"]}]}`))
	f.Add([]byte(`{"version":1,"virtual_nodes":1099511627776,"shards":[{"addr":"a"}]}`))
	f.Add([]byte(`{"version":1,"virtual_nodes":-5,"shards":[{"addr":"a"}]}`))
	f.Add([]byte(`{"version":0,"shards":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var info rpc.RingInfo
		if json.Unmarshal(data, &info) != nil {
			return
		}
		g := NewGate("a")
		if g.SetRing(info) != nil {
			return
		}
		h := g.held.Load()
		for i := 0; i < 64; i++ {
			user := fmt.Sprintf("user-%06d", i)
			if o := h.ring.Owner(user); o < 0 || o >= len(info.Shards) {
				t.Fatalf("%s owned by slot %d of %d", user, o, len(info.Shards))
			}
			g.OwnsUser(user)
			g.OwnsUserWrite(user)
		}
	})
}
