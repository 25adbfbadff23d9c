package health

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSlot is a scripted SlotController: the owner is healthy until
// killed, Failover installs a new healthy owner, and the deposed owner
// shows up as needing heal until Heal runs.
type fakeSlot struct {
	mu          sync.Mutex
	ownerDown   bool
	failovers   int
	heals       int
	needsHeal   bool
	failoverErr error
}

func (f *fakeSlot) ProbeOwner(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ownerDown {
		return errors.New("owner unreachable")
	}
	return nil
}

func (f *fakeSlot) Failover(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failoverErr != nil {
		return f.failoverErr
	}
	f.failovers++
	f.ownerDown = false // the promoted follower is healthy
	f.needsHeal = true  // the deposed owner must be resynced later
	return nil
}

func (f *fakeSlot) NeedsHeal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.needsHeal
}

func (f *fakeSlot) Heal(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.heals++
	f.needsHeal = false
	return nil
}

func (f *fakeSlot) kill() {
	f.mu.Lock()
	f.ownerDown = true
	f.mu.Unlock()
}

func (f *fakeSlot) snapshot() (failovers, heals int, needsHeal bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failovers, f.heals, f.needsHeal
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The full loop: kill the owner, and with no admin in the path the
// supervisor must detect, promote exactly once, report the latency, and
// then heal the deposed owner back in as a follower.
func TestSupervisorDetectsPromotesAndHeals(t *testing.T) {
	slot := &fakeSlot{}
	var promoted atomic.Int64
	var latency atomic.Int64
	m := NewMetrics(nil)
	sup := NewSupervisor(Config{
		Interval:  2 * time.Millisecond,
		Detector:  DetectorConfig{FailThreshold: 3, RecoverThreshold: 2, Decay: 2},
		HealEvery: 2,
		Metrics:   m,
		OnFailover: func(s int, d time.Duration) {
			if s != 7 {
				t.Errorf("OnFailover slot=%d, want 7", s)
			}
			promoted.Add(1)
			latency.Store(int64(d))
		},
	})
	defer sup.Close()
	sup.Watch(7, slot)

	waitFor(t, "healthy probes", func() bool { return m.Probes.Value() >= 3 })
	slot.kill()
	waitFor(t, "automatic promotion", func() bool { return promoted.Load() == 1 })
	if latency.Load() <= 0 {
		t.Error("detect-to-promote latency not reported")
	}
	waitFor(t, "heal of deposed owner", func() bool {
		_, heals, needs := slot.snapshot()
		return heals == 1 && !needs
	})
	failovers, _, _ := slot.snapshot()
	if failovers != 1 {
		t.Fatalf("failovers=%d, want exactly 1", failovers)
	}
	if m.Failovers.Value() != 1 || m.Heals.Value() != 1 {
		t.Fatalf("metrics: failovers=%d heals=%d, want 1/1", m.Failovers.Value(), m.Heals.Value())
	}
	if sup.StateOf(7) != StateUp {
		t.Fatalf("post-recovery state=%v, want up", sup.StateOf(7))
	}
}

// A failover that cannot run yet (no eligible follower) is retried
// until it succeeds, and the down verdict holds meanwhile.
func TestSupervisorRetriesFailover(t *testing.T) {
	slot := &fakeSlot{failoverErr: errors.New("no synced follower")}
	m := NewMetrics(nil)
	sup := NewSupervisor(Config{
		Interval: 2 * time.Millisecond,
		Detector: DetectorConfig{FailThreshold: 2, RecoverThreshold: 2, Decay: 1},
		Metrics:  m,
	})
	defer sup.Close()
	sup.Watch(0, slot)
	slot.kill()

	waitFor(t, "repeated failover attempts", func() bool { return m.FailoverFailures.Value() >= 3 })
	if sup.StateOf(0) != StateDown {
		t.Fatalf("state=%v during unpromotable outage, want down", sup.StateOf(0))
	}
	slot.mu.Lock()
	slot.failoverErr = nil
	slot.mu.Unlock()
	waitFor(t, "eventual promotion", func() bool { return m.Failovers.Value() == 1 })
}

// One missed probe must not trigger recovery: the detector's hysteresis
// is honored by the loop.
func TestSupervisorIgnoresTransientMiss(t *testing.T) {
	slot := &fakeSlot{}
	m := NewMetrics(nil)
	sup := NewSupervisor(Config{
		Interval: 2 * time.Millisecond,
		Detector: DetectorConfig{FailThreshold: 3, RecoverThreshold: 2, Decay: 2},
		Metrics:  m,
	})
	defer sup.Close()
	sup.Watch(0, slot)

	slot.kill()
	waitFor(t, "one failed probe", func() bool { return m.ProbeFailures.Value() >= 1 })
	slot.mu.Lock()
	slot.ownerDown = false
	slot.mu.Unlock()
	waitFor(t, "probes to settle", func() bool { return m.Probes.Value() >= 12 })
	failovers, _, _ := slot.snapshot()
	if failovers != 0 {
		t.Fatalf("transient miss caused %d failovers, want 0", failovers)
	}
}

// StateOf returns StateUp for slots never watched.
func TestSupervisorStateOfUnwatched(t *testing.T) {
	sup := NewSupervisor(Config{})
	defer sup.Close()
	if s := sup.StateOf(42); s != StateUp {
		t.Fatalf("unwatched slot state=%v, want up", s)
	}
}

// A slot that left the ring must stop being probed the moment Unwatch
// returns, other slots keep their loops, and the slot can be watched
// again later (a shard added back at the same index).
func TestSupervisorUnwatchStopsProbesAndRewatchWorks(t *testing.T) {
	gone, kept := &countingSlot{}, &countingSlot{}
	sup := NewSupervisor(Config{Interval: time.Millisecond})
	defer sup.Close()
	sup.Watch(0, kept)
	sup.Watch(1, gone)
	waitFor(t, "probes on both slots", func() bool { return gone.probes.Load() >= 3 && kept.probes.Load() >= 3 })

	sup.Unwatch(1)
	after := gone.probes.Load()
	base := kept.probes.Load()
	waitFor(t, "the kept slot to keep probing", func() bool { return kept.probes.Load() >= base+10 })
	if n := gone.probes.Load(); n != after {
		t.Fatalf("unwatched slot probed %d more times after Unwatch returned", n-after)
	}
	if s := sup.StateOf(1); s != StateUp {
		t.Fatalf("unwatched slot state=%v, want up", s)
	}
	sup.Unwatch(1) // idempotent
	sup.Unwatch(9) // never watched

	back := &countingSlot{}
	sup.Watch(1, back)
	waitFor(t, "probes after re-watch", func() bool { return back.probes.Load() >= 3 })
	if n := gone.probes.Load(); n != after {
		t.Fatalf("re-watch revived the old controller (%d extra probes)", n-after)
	}
}

// countingSlot is a healthy slot that counts its probes.
type countingSlot struct{ probes atomic.Int64 }

func (c *countingSlot) ProbeOwner(context.Context) error { c.probes.Add(1); return nil }
func (c *countingSlot) Failover(context.Context) error   { return nil }
func (c *countingSlot) NeedsHeal() bool                  { return false }
func (c *countingSlot) Heal(context.Context) error       { return nil }
