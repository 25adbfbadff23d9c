package health

import "testing"

func observeN(d *Detector, ok bool, n int) (s State) {
	for i := 0; i < n; i++ {
		s, _ = d.Observe(ok)
	}
	return s
}

// One lost probe must not flap the peer: it goes suspect, and decay
// restores full health after enough consecutive successes.
func TestDetectorSingleMissDoesNotFlap(t *testing.T) {
	d := NewDetector()
	if s, changed := d.Observe(false); s != StateSuspect || !changed {
		t.Fatalf("after one miss: state=%v changed=%v, want suspect/true", s, changed)
	}
	if s, changed := d.Observe(true); s != StateSuspect || changed {
		t.Fatalf("one success must not clear suspicion yet: state=%v changed=%v", s, changed)
	}
	if s, changed := d.Observe(true); s != StateUp || !changed {
		t.Fatalf("decay after 2 successes: state=%v changed=%v, want up/true", s, changed)
	}
	if d.score != 0 {
		t.Fatalf("score=%d after decay, want 0", d.score)
	}
}

// Sustained misses cross the threshold exactly at failThreshold.
func TestDetectorFailThreshold(t *testing.T) {
	d := NewDetector()
	if s := observeN(d, false, 2); s != StateSuspect {
		t.Fatalf("2/3 misses: state=%v, want suspect", s)
	}
	s, changed := d.Observe(false)
	if s != StateDown || !changed {
		t.Fatalf("3rd miss: state=%v changed=%v, want down/true", s, changed)
	}
}

// Isolated misses spread across a long healthy stream must decay away
// rather than accumulate into a false down verdict.
func TestDetectorSuspicionDecays(t *testing.T) {
	d := NewDetector()
	for i := 0; i < 10; i++ {
		d.Observe(false)
		if s := observeN(d, true, 4); s != StateUp {
			t.Fatalf("iteration %d: isolated miss did not decay, state=%v score=%d", i, s, d.score)
		}
	}
}

// A down peer must answer recoverThreshold consecutive probes before it
// is trusted again; a miss mid-recovery starts the count over.
func TestDetectorRecoveryHysteresis(t *testing.T) {
	d := NewDetector()
	observeN(d, false, 3)
	if d.State() != StateDown {
		t.Fatalf("state=%v, want down", d.State())
	}
	d.Observe(true)
	if d.State() != StateDown {
		t.Fatal("1/2 recovery successes must not clear down")
	}
	d.Observe(false) // resets the recovery streak
	d.Observe(true)
	if d.State() != StateDown {
		t.Fatal("recovery streak must restart after a miss")
	}
	s, changed := d.Observe(true)
	if s != StateUp || !changed {
		t.Fatalf("2nd consecutive success: state=%v changed=%v, want up/true", s, changed)
	}
}

// Reset returns a fresh detector regardless of prior state.
func TestDetectorReset(t *testing.T) {
	d := NewDetector()
	observeN(d, false, 10)
	if d.State() != StateDown {
		t.Fatalf("state=%v, want down", d.State())
	}
	d.Reset()
	if d.State() != StateUp || d.score != 0 {
		t.Fatalf("after reset: state=%v score=%d", d.State(), d.score)
	}
}

// The thresholds are constants: down on the 3rd consecutive miss, trusted
// again after 2 consecutive successes, and while not down one miss
// forgiven per 2 consecutive successes.
func TestDetectorDefaults(t *testing.T) {
	d := NewDetector()
	if s := observeN(d, false, 2); s == StateDown {
		t.Fatal("2 misses must not declare the peer down")
	}
	if s := observeN(d, false, 1); s != StateDown {
		t.Fatalf("state after 3 misses=%v, want down", s)
	}
	if s := observeN(d, true, 1); s != StateDown {
		t.Fatalf("state after 1 recovery success=%v, want down", s)
	}
	if s := observeN(d, true, 1); s != StateUp {
		t.Fatalf("state after 2 recovery successes=%v, want up", s)
	}

	// Two misses, then each pair of successes forgives one of them.
	d = NewDetector()
	observeN(d, false, 2)
	for _, want := range []int{2, 1, 1, 0} {
		d.Observe(true)
		if d.score != want {
			t.Fatalf("score=%d, want %d", d.score, want)
		}
	}
}
