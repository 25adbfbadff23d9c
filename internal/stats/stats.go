package stats

import (
	"math"
	"sort"
)

// sqrt and ln exist so that rng.go has no direct math import of its own;
// keeping the math surface in one file makes the hot PRNG path obvious.
func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation. It copies and sorts its input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with successes out of n trials at ~95% confidence. It is preferred over
// the normal approximation for the small counts thresholded reports produce.
func WilsonInterval(successes, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(successes) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ChiSquare2x2 computes the chi-square statistic (with Yates continuity
// correction) for a 2x2 contingency table
//
//	            outcome+  outcome-
//	exposed        a         b
//	unexposed      c         d
//
// It is the significance engine behind the XRay/Sunlight-style correlation
// baseline (experiment E9).
func ChiSquare2x2(a, b, c, d int) float64 {
	n := float64(a + b + c + d)
	if n == 0 {
		return 0
	}
	r1 := float64(a + b)
	r2 := float64(c + d)
	c1 := float64(a + c)
	c2 := float64(b + d)
	if r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0 {
		return 0
	}
	diff := math.Abs(float64(a)*float64(d)-float64(b)*float64(c)) - n/2
	if diff < 0 {
		diff = 0
	}
	return n * diff * diff / (r1 * r2 * c1 * c2)
}

// ChiSquareSignificant reports whether a chi-square statistic with one
// degree of freedom is significant at the given alpha. Only the levels used
// by the experiments are supported.
func ChiSquareSignificant(chi2, alpha float64) bool {
	var crit float64
	switch {
	case alpha <= 0.001:
		crit = 10.828
	case alpha <= 0.01:
		crit = 6.635
	case alpha <= 0.05:
		crit = 3.841
	default:
		crit = 2.706 // alpha = 0.10
	}
	return chi2 > crit
}
