package obs

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log-linear scheme: every value lands in a
// bucket whose bounds contain it, buckets tile the range with no gaps, and
// the relative width above the linear region is at most 25%.
func TestBucketBoundaries(t *testing.T) {
	// The linear region: one value per bucket.
	for v := uint64(0); v < subCount; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := BucketUpperNanos(int(v)); got != v {
			t.Errorf("BucketUpperNanos(%d) = %d, want %d", v, got, v)
		}
	}

	// Spot values across the whole range, including bucket edges.
	values := []uint64{4, 5, 7, 8, 9, 10, 15, 16, 17, 100, 1000, 4095, 4096,
		1e3, 1e6, 25e6, 1e9, 30e9, 549e9}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if idx == NumBuckets-1 {
			continue // catch-all, no finite upper bound contract
		}
		upper := BucketUpperNanos(idx)
		if v > upper {
			t.Errorf("value %d above its bucket %d upper bound %d", v, idx, upper)
		}
		if idx > 0 {
			if lower := BucketUpperNanos(idx - 1); v <= lower {
				t.Errorf("value %d at or below previous bucket's upper bound %d", v, lower)
			}
		}
	}

	// Buckets tile: upper bounds strictly increase, and the value one past
	// each bound indexes the next bucket.
	for i := 0; i < NumBuckets-2; i++ {
		u := BucketUpperNanos(i)
		if next := BucketUpperNanos(i + 1); next <= u {
			t.Fatalf("bucket %d upper %d not above bucket %d upper %d", i+1, next, i, u)
		}
		if got := bucketIndex(u + 1); got != i+1 {
			t.Errorf("bucketIndex(%d) = %d, want %d", u+1, got, i+1)
		}
	}

	// Relative width ≤ 25% above the linear region.
	for i := subCount; i < NumBuckets-1; i++ {
		lower := BucketUpperNanos(i - 1)
		upper := BucketUpperNanos(i)
		if width := upper - lower; width*4 > lower+1 {
			t.Errorf("bucket %d width %d exceeds 25%% of lower bound %d", i, width, lower)
		}
	}

	// Values past the range clamp to the catch-all.
	if got := bucketIndex(1 << 62); got != NumBuckets-1 {
		t.Errorf("bucketIndex(1<<62) = %d, want catch-all %d", got, NumBuckets-1)
	}
}

// TestHistogramQuantiles feeds a known distribution and checks that the
// extracted quantiles sit within one bucket width (≤25%) of truth.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 microseconds, uniform: p50 ≈ 500µs, p95 ≈ 950µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	wantSum := uint64(1000*1001/2) * 1000 // ns
	if s.SumNanos != wantSum {
		t.Fatalf("SumNanos = %d, want %d", s.SumNanos, wantSum)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := s.Quantile(tc.q)
		// Upper-bound estimate: never below truth, at most 25% above.
		if got < tc.want || float64(got) > float64(tc.want)*1.25 {
			t.Errorf("Quantile(%.2f) = %v, want within [%v, %v]", tc.q, got, tc.want, time.Duration(float64(tc.want)*1.25))
		}
	}
	if m := time.Duration(s.SumNanos / s.Count); m < 450*time.Microsecond || m > 550*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", m)
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Count != 0 || s.SumNanos != 0 {
		t.Errorf("empty histogram: Quantile=%v Count=%d Sum=%d, want 0", s.Quantile(0.99), s.Count, s.SumNanos)
	}
	h.Observe(-time.Second) // clamps to 0
	h.Observe(0)
	s = h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 2 {
		t.Errorf("negative/zero observations: Count=%d Buckets[0]=%d, want 2, 2", s.Count, s.Buckets[0])
	}
	if q := s.Quantile(2); q != 0 {
		t.Errorf("Quantile(2) on zero-valued histogram = %v, want 0 (clamped q)", q)
	}
}

// TestHistogramConcurrent hammers one histogram from 64 goroutines with
// concurrent snapshots — the race detector run in CI is the real assertion;
// the count check catches lost updates.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines = 64
	const perG = 2000
	h := NewHistogram()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader racing the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				_ = s.Quantile(0.95)
			}
		}
	}()

	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("Count = %d, want %d (lost updates)", got, goroutines*perG)
	}
}

// TestObserveZeroAllocs pins the hot-path guarantee: Observe, Counter.Add,
// and Gauge.Set allocate nothing.
func TestObserveZeroAllocs(t *testing.T) {
	h := NewHistogram()
	c := NewCounter()
	g := NewGauge()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per call, want 0", n)
	}
}
