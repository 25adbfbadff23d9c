// Package stats provides the deterministic randomness and small statistical
// helpers shared by the workload generator, the auction model, the privacy
// analyzer, and the correlation baseline.
//
// Everything in this repository that consumes randomness takes an explicit
// *stats.RNG seeded by the caller, so every experiment is reproducible
// bit-for-bit across runs and machines.
package stats

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64 core). It intentionally does not wrap math/rand so that the
// sequence is fixed by this repository rather than by the Go release.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the same
// seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State returns the generator's complete internal state. NewRNG(State())
// resumes the sequence exactly where this generator stands, which is what
// lets a platform snapshot freeze auction randomness mid-stream.
func (r *RNG) State() uint64 { return r.state }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrt(-2*ln(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -ln(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator from this one. The derived stream is
// deterministic given the parent's state, so forking per-subsystem keeps
// experiments reproducible even when subsystems draw in different orders.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// SubSeed derives the seed for an indexed substream (a cluster shard, a
// worker) from a base seed. Stream 0 is the identity — SubSeed(s, 0) == s —
// so a 1-shard cluster draws the exact sequence the unsharded platform
// would, which is what the cluster equivalence tests pin down. Non-zero
// streams pass through a SplitMix64 finalizer so that adjacent stream
// indices land far apart in seed space.
func SubSeed(seed uint64, stream uint64) uint64 {
	if stream == 0 {
		return seed
	}
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
