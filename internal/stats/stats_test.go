package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		ss += v * v
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval = [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] excludes the point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval [%v,%v] too wide for n=100", lo, hi)
	}
	lo, hi = WilsonInterval(0, 10)
	if lo != 0 {
		t.Fatalf("zero successes lo = %v", lo)
	}
	lo, hi = WilsonInterval(10, 10)
	if hi != 1 {
		t.Fatalf("all successes hi = %v", hi)
	}
}

func TestWilsonIntervalProperty(t *testing.T) {
	f := func(s8, n8 uint8) bool {
		n := int(n8%100) + 1
		s := int(s8) % (n + 1)
		lo, hi := WilsonInterval(s, n)
		return lo >= 0 && hi <= 1 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquare2x2(t *testing.T) {
	// Perfect independence: no signal.
	if chi := ChiSquare2x2(10, 10, 10, 10); chi > 0.5 {
		t.Fatalf("independent table chi2 = %v", chi)
	}
	// Strong association.
	chi := ChiSquare2x2(50, 0, 0, 50)
	if !ChiSquareSignificant(chi, 0.001) {
		t.Fatalf("perfectly associated table chi2 = %v not significant", chi)
	}
	// Degenerate tables do not blow up.
	if chi := ChiSquare2x2(0, 0, 0, 0); chi != 0 {
		t.Fatalf("empty table chi2 = %v", chi)
	}
	if chi := ChiSquare2x2(5, 5, 0, 0); chi != 0 {
		t.Fatalf("one-row table chi2 = %v", chi)
	}
}

func TestChiSquareSignificantLevels(t *testing.T) {
	if ChiSquareSignificant(3.0, 0.05) {
		t.Error("3.0 should not be significant at 0.05")
	}
	if !ChiSquareSignificant(4.0, 0.05) {
		t.Error("4.0 should be significant at 0.05")
	}
	if ChiSquareSignificant(4.0, 0.01) {
		t.Error("4.0 should not be significant at 0.01")
	}
	if !ChiSquareSignificant(7.0, 0.01) {
		t.Error("7.0 should be significant at 0.01")
	}
	if !ChiSquareSignificant(11.0, 0.001) {
		t.Error("11.0 should be significant at 0.001")
	}
	if !ChiSquareSignificant(3.0, 0.10) {
		t.Error("3.0 should be significant at 0.10")
	}
}
