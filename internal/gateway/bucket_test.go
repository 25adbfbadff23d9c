package gateway

import (
	"testing"
	"time"
)

func TestBucketStartsFullAndDrains(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(10, 5, now)
	for i := 0; i < 5; i++ {
		ok, _, _ := b.take(now)
		if !ok {
			t.Fatalf("take %d: refused with burst 5", i)
		}
	}
	ok, remaining, wait := b.take(now)
	if ok {
		t.Fatalf("take 6 at the same instant succeeded past burst")
	}
	if remaining != 0 {
		t.Fatalf("remaining = %v after draining, want 0", remaining)
	}
	// Empty at 10 rps: a full token is 100ms away.
	if wait <= 0 || wait > 110*time.Millisecond {
		t.Fatalf("wait = %v, want ~100ms", wait)
	}
}

func TestBucketRefillsAtRate(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(10, 5, now)
	for i := 0; i < 5; i++ {
		b.take(now)
	}
	// 250ms at 10 rps accrues 2.5 tokens: two takes succeed, the third
	// does not.
	now += 250 * int64(time.Millisecond)
	for i := 0; i < 2; i++ {
		if ok, _, _ := b.take(now); !ok {
			t.Fatalf("take %d after 250ms refused", i)
		}
	}
	if ok, _, _ := b.take(now); ok {
		t.Fatalf("third take succeeded on 2.5 accrued tokens")
	}
}

func TestBucketCapsAtBurst(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(1000, 3, now)
	// A long idle period must not bank more than burst.
	now += int64(time.Hour)
	if ok, remaining, _ := b.take(now); !ok || remaining != 2 {
		t.Fatalf("take after an idle hour: ok=%v, %v left, want burst 3 less one", ok, remaining)
	}
	for i := 1; i < 3; i++ {
		if ok, _, _ := b.take(now); !ok {
			t.Fatalf("take %d refused at full burst", i)
		}
	}
	if ok, _, _ := b.take(now); ok {
		t.Fatalf("take past burst succeeded after idle banking")
	}
}

func TestBucketSurvivesLongIdleWithoutOverflow(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(5000, 10000, now)
	// elapsed*rate in raw int64 would overflow after hours of idleness at
	// this rate; the refill math must saturate at burst instead of going
	// negative.
	now += 30 * 24 * int64(time.Hour)
	if ok, remaining, _ := b.take(now); !ok || remaining != 9999 {
		t.Fatalf("take after 30 idle days: ok=%v, %v left, want burst 10000 less one", ok, remaining)
	}
}

func TestBucketFractionalRate(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(0.5, 1, now)
	if ok, _, _ := b.take(now); !ok {
		t.Fatalf("initial take refused")
	}
	// Half a token per second: after 1s the bucket holds 0.5.
	now += int64(time.Second)
	if ok, _, wait := b.take(now); ok {
		t.Fatalf("take succeeded on half a token")
	} else if wait <= 0 || wait > 1100*time.Millisecond {
		t.Fatalf("wait = %v, want ~1s", wait)
	}
	now += int64(time.Second)
	if ok, _, _ := b.take(now); !ok {
		t.Fatalf("take refused after full refill interval")
	}
}

func TestBucketClockNeverRewinds(t *testing.T) {
	now := time.Now().UnixNano()
	b := newTokenBucket(10, 2, now)
	_, before, _ := b.take(now)
	// A clock step backwards must not mint or destroy tokens.
	if ok, got, _ := b.take(now - int64(time.Minute)); !ok || got != before-1 {
		t.Fatalf("take with rewound clock: ok=%v, %v left, want %v", ok, got, before-1)
	}
}
