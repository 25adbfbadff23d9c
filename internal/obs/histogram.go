package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// The histogram is log-linear over nanoseconds: each power of two is split
// into subCount linear sub-buckets, so the relative width of any bucket is
// at most 1/subCount (25%) — tight enough to read p50/p95/p99 off the
// bucket boundaries while keeping the bucket array small and the index
// computation branch-light (one bits.Len64, two shifts).
//
// Bucket i < subCount holds exactly the value i (sub-nanosecond precision
// at the very bottom, where the scheme degenerates to linear). Above that,
// for v with bit length L, the bucket is ((L-subBits)<<subBits) + the
// sub-bucket v selects — see bucketIndex. NumBuckets caps the range at
// ~8.8 minutes; anything slower lands in the final catch-all bucket, which
// the exporter folds into +Inf rather than report a fake finite bound.
const (
	subBits    = 2
	subCount   = 1 << subBits
	NumBuckets = 152
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 - subBits
	idx := int((exp+1)<<subBits) + int((v>>exp)-subCount)
	if idx >= NumBuckets {
		return NumBuckets - 1
	}
	return idx
}

// BucketUpperNanos returns the largest nanosecond value bucket i holds.
// The final bucket is a catch-all; its nominal bound is meaningless and
// the exporter treats it as +Inf.
func BucketUpperNanos(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	exp := uint(i>>subBits) - 1
	sub := uint64(i & (subCount - 1))
	return ((subCount+sub+1)<<exp - 1)
}

// histShard is one writer stripe. count and sum share the stripe's first
// cache line; the bucket array follows. The trailing pad rounds the struct
// to a cache-line multiple so stripes never share a line.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
	_       [48]byte
}

// Histogram is a lock-free latency histogram. Observe picks a stripe with
// a per-thread random draw (runtime fastrand under math/rand/v2 — no
// locks, no allocation) and does three atomic adds on it; Snapshot merges
// the stripes. Under concurrent writers the stripes spread contention the
// way sharded counters do, at the cost of Snapshot being a racy sum — fine
// for monitoring, which only ever reads moving totals.
type Histogram struct {
	shards []histShard
	mask   uint32
}

// NewHistogram returns a standalone (unregistered) histogram striped for
// the current GOMAXPROCS (rounded up to a power of two, capped at 64).
func NewHistogram() *Histogram {
	n := runtime.GOMAXPROCS(0)
	if n > 64 {
		n = 64
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Histogram{shards: make([]histShard, size), mask: uint32(size - 1)}
}

// Observe records one duration. Negative durations clamp to zero. This is
// the hot path: no locks, no allocation.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	s := &h.shards[rand.Uint32()&h.mask]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketIndex(v)].Add(1)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// HistogramSnapshot is a merged view of a histogram at (roughly) one
// moment. Buckets are per-bucket counts, not cumulative.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	Buckets  [NumBuckets]uint64
}

// Snapshot merges all stripes. Stripes are read with atomic loads but not
// as one consistent cut; totals can be off by whatever arrived mid-walk.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.SumNanos += sh.sum.Load()
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
	}
	return s
}

// Quantile returns the smallest bucket upper bound at or below which a q
// fraction of observations fall — the conservative (upper-bound) quantile
// estimate, accurate to the bucket's ≤25% relative width. q outside [0,1]
// clamps; an empty histogram reports 0.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			return time.Duration(BucketUpperNanos(i))
		}
	}
	return time.Duration(BucketUpperNanos(NumBuckets - 1))
}
