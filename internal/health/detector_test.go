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
	d := NewDetector(DetectorConfig{FailThreshold: 3, RecoverThreshold: 2, Decay: 2})
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

// Sustained misses cross the threshold exactly at FailThreshold.
func TestDetectorFailThreshold(t *testing.T) {
	d := NewDetector(DetectorConfig{FailThreshold: 3, RecoverThreshold: 2, Decay: 2})
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
	d := NewDetector(DetectorConfig{FailThreshold: 3, RecoverThreshold: 2, Decay: 2})
	for i := 0; i < 10; i++ {
		d.Observe(false)
		if s := observeN(d, true, 4); s != StateUp {
			t.Fatalf("iteration %d: isolated miss did not decay, state=%v score=%d", i, s, d.score)
		}
	}
}

// A down peer must answer RecoverThreshold consecutive probes before it
// is trusted again; a miss mid-recovery starts the count over.
func TestDetectorRecoveryHysteresis(t *testing.T) {
	d := NewDetector(DetectorConfig{FailThreshold: 2, RecoverThreshold: 3, Decay: 1})
	observeN(d, false, 2)
	if d.State() != StateDown {
		t.Fatalf("state=%v, want down", d.State())
	}
	observeN(d, true, 2)
	if d.State() != StateDown {
		t.Fatal("2/3 recovery successes must not clear down")
	}
	d.Observe(false) // resets the recovery streak
	observeN(d, true, 2)
	if d.State() != StateDown {
		t.Fatal("recovery streak must restart after a miss")
	}
	s, changed := d.Observe(true)
	if s != StateUp || !changed {
		t.Fatalf("3rd consecutive success: state=%v changed=%v, want up/true", s, changed)
	}
}

// Reset returns a fresh detector regardless of prior state.
func TestDetectorReset(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	observeN(d, false, 10)
	if d.State() != StateDown {
		t.Fatalf("state=%v, want down", d.State())
	}
	d.Reset()
	if d.State() != StateUp || d.score != 0 {
		t.Fatalf("after reset: state=%v score=%d", d.State(), d.score)
	}
}

// Defaults must be applied for the zero config.
func TestDetectorDefaults(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	if s := observeN(d, false, 2); s == StateDown {
		t.Fatal("default FailThreshold must exceed 2 misses")
	}
	if s := observeN(d, false, 1); s != StateDown {
		t.Fatalf("default FailThreshold: state after 3 misses=%v, want down", s)
	}
}
