// Package cluster partitions a simulated advertising platform across N
// independent shards so the system scales past one core: every shard is a
// complete *platform.Platform (or its journaled wrapper) owning a disjoint
// slice of the user base, and a Cluster coordinator in front of them
// satisfies the same httpapi.Backend surface the single platform does, so
// the HTTP server, the admin endpoints, and the Treads mechanism itself run
// unchanged on top.
//
// The partitioning rules follow what the operations touch:
//
//   - User-scoped operations (feed browses, pixel fires, likes, the
//     transparency surfaces) route to the shard that owns the user on a
//     consistent-hash ring; only that shard's locks are taken, so disjoint
//     users proceed on different cores in parallel.
//   - Advertiser-scoped mutations (accounts, audiences, campaigns, pixels)
//     replicate to every shard in the same order; because each shard is
//     deterministic, all shards mint identical IDs and the advertiser-side
//     namespace is cluster-global.
//   - Aggregate reads (potential reach, campaign reports) scatter-gather
//     exact per-shard totals with a bounded worker pool and apply the
//     advertiser-visible thresholds once, on the merged totals — the
//     aggregate-only property the paper's privacy argument needs is
//     enforced at the cluster edge, never per shard.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per shard. Enough to
// smooth FNV's placement over a handful of shards; raising it past a few
// hundred buys little.
const DefaultVirtualNodes = 128

// The bounds on a ring built from wire values (a gate's pushed membership, a
// seed's ring answer): without them one message could ask for a ring of
// shards*virtualNodes points that exhausts memory.
const (
	maxVirtualNodes = 1024
	maxRingPoints   = 1 << 20
)

// Ring is a consistent-hash ring mapping string keys (user IDs) to shard
// indices. It is immutable after construction and safe for concurrent use.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring of shards*virtualNodes points. virtualNodes <= 0
// selects DefaultVirtualNodes. The layout is a pure function of (shards,
// virtualNodes), so two rings built with the same parameters — say, one in
// a boot loader partitioning the initial population and one inside the
// cluster routing live requests — agree on every key.
func NewRing(shards, virtualNodes int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("cluster: NewRing with %d shards", shards))
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	r := &Ring{
		shards: shards,
		points: make([]ringPoint, 0, shards*virtualNodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			h := hashKey(fmt.Sprintf("shard-%d#%d", s, v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnode labels are astronomically rare,
		// but break them deterministically anyway.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// checkedRing is NewRing for membership that arrived over the wire: it
// refuses, instead of building, a ring with no shards, virtualNodes below 0
// or above maxVirtualNodes, or more than maxRingPoints points. 0 still
// selects DefaultVirtualNodes.
func checkedRing(shards, virtualNodes int) (*Ring, error) {
	if shards < 1 {
		return nil, errors.New("cluster: refusing a ring with no shards")
	}
	if virtualNodes < 0 || virtualNodes > maxVirtualNodes {
		return nil, fmt.Errorf("cluster: refusing a ring of %d virtual nodes per shard (0…%d)", virtualNodes, maxVirtualNodes)
	}
	if virtualNodes == 0 {
		virtualNodes = DefaultVirtualNodes
	}
	if shards*virtualNodes > maxRingPoints {
		return nil, fmt.Errorf("cluster: refusing a ring of %d shards × %d virtual nodes (at most %d points)", shards, virtualNodes, maxRingPoints)
	}
	return NewRing(shards, virtualNodes), nil
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning the key: the first ring point at or
// clockwise of the key's hash.
func (r *Ring) Owner(key string) int {
	if r.shards == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}

// hashKey is FNV-1a 64 with a SplitMix64 finalizer. Plain FNV clusters
// near-identical keys (user-000041 vs user-000042 differ in one byte); the
// finalizer spreads them over the whole ring.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
