package gateway

import (
	"sync"
	"time"
)

// microToken is the bucket's internal resolution: one token is a million
// micro-tokens, so fractional refill rates accrue without floating-point
// drift in the stored state.
const microToken = 1_000_000

// tokenBucket is a refill-on-read token bucket. There is no background
// refill goroutine: each take computes the tokens accrued since the last
// take from the clock, which makes an idle bucket free and a busy bucket
// cost one short critical section per decision. The state is two int64s
// behind a mutex — taking the lock allocates nothing, and the arithmetic
// is integer-only, so the admit path stays zero-allocation (pinned by
// TestDecideZeroAlloc).
type tokenBucket struct {
	mu        sync.Mutex
	micro     int64 // current balance, micro-tokens
	lastNanos int64 // clock of the last refill
	rate      int64 // refill, micro-tokens per second
	burst     int64 // balance cap, micro-tokens
	unlimited bool
}

// newTokenBucket returns a full bucket refilling at rps tokens per second
// with the given burst capacity. rps and burst must be positive;
// newUnlimitedBucket covers the exempt case.
func newTokenBucket(rps, burst float64, now int64) *tokenBucket {
	b := &tokenBucket{
		rate:      int64(rps * microToken),
		burst:     int64(burst * microToken),
		lastNanos: now,
	}
	if b.burst < microToken {
		b.burst = microToken
	}
	if b.rate < 1 {
		b.rate = 1
	}
	b.micro = b.burst
	return b
}

// newUnlimitedBucket returns a bucket whose take always succeeds.
func newUnlimitedBucket() *tokenBucket { return &tokenBucket{unlimited: true} }

// take attempts to remove one token at clock now (unix nanoseconds).
// On success it returns ok=true and the remaining balance in tokens; on
// failure, the wait until a full token will have accrued — the value the
// gateway rounds up into Retry-After.
func (b *tokenBucket) take(now int64) (ok bool, remaining float64, wait time.Duration) {
	if b.unlimited {
		return true, 0, 0
	}
	b.mu.Lock()
	if now > b.lastNanos {
		elapsed := now - b.lastNanos
		b.lastNanos = now
		// float64 intermediate: elapsed*rate overflows int64 after ~2.5h
		// of idleness at modest rates; the product of two float64s never
		// does, and sub-micro-token truncation error is below billing
		// resolution.
		b.micro += int64(float64(elapsed) * float64(b.rate) / 1e9)
		if b.micro > b.burst {
			b.micro = b.burst
		}
	}
	if b.micro >= microToken {
		b.micro -= microToken
		rem := float64(b.micro) / microToken
		b.mu.Unlock()
		return true, rem, 0
	}
	have := b.micro
	b.mu.Unlock()
	return false, float64(have) / microToken,
		time.Duration(float64(microToken-have) * 1e9 / float64(b.rate))
}

// tokens returns the balance that would be available at clock now,
// without taking any.
func (b *tokenBucket) tokens(now int64) float64 {
	if b.unlimited {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	micro := b.micro
	if now > b.lastNanos {
		micro += int64(float64(now-b.lastNanos) * float64(b.rate) / 1e9)
		if micro > b.burst {
			micro = b.burst
		}
	}
	return float64(micro) / microToken
}
