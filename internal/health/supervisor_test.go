package health

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSlot is one scripted slot: the owner is healthy until killed,
// a failover installs a new healthy owner, and the deposed owner shows up
// as needing heal until healed.
type fakeSlot struct {
	ownerDown   bool
	failovers   int
	heals       int
	needsHeal   bool
	failoverErr error
	probes      int
	// firstProbeAfter is slot 0's probe count when this slot was first
	// probed.
	firstProbeAfter int
	// probeBudget is the time the first probe had left before its
	// deadline when it reached the fleet.
	probeBudget time.Duration
	// probesAtHeal is the probe count when the slot was first healed.
	probesAtHeal int
}

// fakeFleet is a scripted Fleet whose slot count the test changes at will.
// A call addressed to a slot past the end is counted as stray, not served.
type fakeFleet struct {
	mu    sync.Mutex
	slots []*fakeSlot
	stray []string
}

func newFakeFleet(n int) *fakeFleet {
	f := &fakeFleet{}
	f.resize(n)
	return f
}

// resize grows the fleet with fresh healthy slots or drops its tail.
func (f *fakeFleet) resize(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.slots) < n {
		f.slots = append(f.slots, &fakeSlot{})
	}
	f.slots = f.slots[:n]
}

// with runs fn on slot i under the fleet lock; a slot past the end is a
// stray call and fn does not run.
func (f *fakeFleet) with(what string, i int, fn func(*fakeSlot)) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i >= len(f.slots) {
		f.stray = append(f.stray, fmt.Sprintf("%s(%d)", what, i))
		return false
	}
	fn(f.slots[i])
	return true
}

func (f *fakeFleet) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slots)
}

func (f *fakeFleet) ProbeSlotOwner(ctx context.Context, slot int) error {
	down := true
	f.with("probe", slot, func(s *fakeSlot) {
		if s.probes++; s.probes == 1 {
			s.firstProbeAfter = f.slots[0].probes
			if dl, ok := ctx.Deadline(); ok {
				s.probeBudget = time.Until(dl)
			}
		}
		down = s.ownerDown
	})
	if down {
		return errors.New("owner unreachable")
	}
	return nil
}

func (f *fakeFleet) FailoverSlot(slot int, force bool) (int, error) {
	err := fmt.Errorf("no slot %d", slot)
	f.with("failover", slot, func(s *fakeSlot) {
		if err = s.failoverErr; err != nil {
			return
		}
		s.failovers++
		s.ownerDown = false // the promoted follower is healthy
		s.needsHeal = true  // the deposed owner must be resynced later
	})
	return 1, err
}

func (f *fakeFleet) SlotDegraded(slot int) bool {
	var needs bool
	f.with("degraded", slot, func(s *fakeSlot) { needs = s.needsHeal })
	return needs
}

func (f *fakeFleet) HealSlot(slot int) error {
	f.with("heal", slot, func(s *fakeSlot) {
		if s.heals++; s.heals == 1 {
			s.probesAtHeal = s.probes
		}
		s.needsHeal = false
	})
	return nil
}

// slot returns a copy of slot i's script state.
func (f *fakeFleet) slot(i int) fakeSlot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *f.slots[i]
}

func (f *fakeFleet) set(i int, fn func(*fakeSlot)) { f.with("set", i, fn) }

func (f *fakeFleet) strays() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.stray...)
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

// The full loop: kill one slot's owner, and with no admin in the path the
// supervisor must detect, promote exactly once, report the latency, and
// then heal the deposed owner back in as a follower — touching no other
// slot.
func TestSupervisorDetectsPromotesAndHeals(t *testing.T) {
	fleet := newFakeFleet(8)
	var promoted atomic.Int64
	var latency atomic.Int64
	m := NewMetrics(nil)
	sup := NewSupervisor(fleet, Config{
		Interval: 2 * time.Millisecond,
		Metrics:  m,
		OnFailover: func(s int, d time.Duration) {
			if s != 7 {
				t.Errorf("OnFailover slot=%d, want 7", s)
			}
			promoted.Add(1)
			latency.Store(int64(d))
		},
	})
	defer sup.Close()

	waitFor(t, "healthy probes", func() bool { return fleet.slot(7).probes >= 3 })
	fleet.set(7, func(s *fakeSlot) { s.ownerDown = true })
	waitFor(t, "automatic promotion", func() bool { return promoted.Load() == 1 })
	if latency.Load() <= 0 {
		t.Error("detect-to-promote latency not reported")
	}
	waitFor(t, "heal of deposed owner", func() bool {
		s := fleet.slot(7)
		return s.heals == 1 && !s.needsHeal && m.Heals.Value() == 1
	})
	if n := fleet.slot(7).failovers; n != 1 {
		t.Fatalf("failovers=%d, want exactly 1", n)
	}
	if m.Failovers.Value() != 1 || m.Heals.Value() != 1 {
		t.Fatalf("metrics: failovers=%d heals=%d, want 1/1", m.Failovers.Value(), m.Heals.Value())
	}
	if v := m.SlotsDown.Value(); v != 0 {
		t.Fatalf("post-recovery health_slots_down=%v, want 0", v)
	}
	for i := 0; i < 7; i++ {
		if s := fleet.slot(i); s.failovers != 0 || s.heals != 0 {
			t.Fatalf("healthy slot %d saw %d failovers and %d heals", i, s.failovers, s.heals)
		}
	}
}

// The supervisor's constants: each probe is bounded by one interval, and
// a degraded chain is healed on the 4th tick, the first heal check.
func TestSupervisorProbeTimeoutAndHealCadence(t *testing.T) {
	const interval = 100 * time.Millisecond
	fleet := newFakeFleet(1)
	fleet.set(0, func(s *fakeSlot) { s.needsHeal = true })
	sup := NewSupervisor(fleet, Config{Interval: interval})
	defer sup.Close()
	waitFor(t, "the heal", func() bool { return fleet.slot(0).heals == 1 })
	s := fleet.slot(0)
	if s.probeBudget <= interval/2 || s.probeBudget > interval {
		t.Errorf("a probe had %v before its deadline, want the %v interval", s.probeBudget, interval)
	}
	if s.probesAtHeal != 4 {
		t.Errorf("healed after probe %d, want the 4th", s.probesAtHeal)
	}
}

// A failover that cannot run yet (no eligible follower) is retried
// until it succeeds, and the down verdict holds meanwhile.
func TestSupervisorRetriesFailover(t *testing.T) {
	fleet := newFakeFleet(1)
	fleet.set(0, func(s *fakeSlot) { s.failoverErr = errors.New("no synced follower") })
	m := NewMetrics(nil)
	sup := NewSupervisor(fleet, Config{
		Interval: 2 * time.Millisecond,
		Metrics:  m,
	})
	defer sup.Close()
	fleet.set(0, func(s *fakeSlot) { s.ownerDown = true })

	waitFor(t, "repeated failover attempts", func() bool { return m.FailoverFailures.Value() >= 3 })
	if v := m.SlotsDown.Value(); v != 1 {
		t.Fatalf("health_slots_down=%v during unpromotable outage, want 1", v)
	}
	fleet.set(0, func(s *fakeSlot) { s.failoverErr = nil })
	waitFor(t, "eventual promotion", func() bool { return m.Failovers.Value() == 1 })
	waitFor(t, "the promoted slot to leave health_slots_down", func() bool { return m.SlotsDown.Value() == 0 })
}

// An owner that answers again before any promotion succeeds ends the
// outage: the detector recovers and the slot leaves health_slots_down.
func TestSupervisorOwnerBackBeforePromotion(t *testing.T) {
	fleet := newFakeFleet(1)
	fleet.set(0, func(s *fakeSlot) { s.ownerDown = true; s.failoverErr = errors.New("no synced follower") })
	m := NewMetrics(nil)
	sup := NewSupervisor(fleet, Config{
		Interval: 2 * time.Millisecond,
		Metrics:  m,
	})
	defer sup.Close()
	waitFor(t, "the down verdict", func() bool { return m.SlotsDown.Value() == 1 })
	fleet.set(0, func(s *fakeSlot) { s.ownerDown = false })
	waitFor(t, "the slot to leave health_slots_down", func() bool { return m.SlotsDown.Value() == 0 })
	if n := m.Failovers.Value(); n != 0 {
		t.Fatalf("%d promotions of a slot whose owner came back", n)
	}
}

// One missed probe must not trigger recovery: the detector's hysteresis
// is honored by the loop.
func TestSupervisorIgnoresTransientMiss(t *testing.T) {
	fleet := newFakeFleet(1)
	m := NewMetrics(nil)
	sup := NewSupervisor(fleet, Config{
		Interval: 2 * time.Millisecond,
		Metrics:  m,
	})
	defer sup.Close()

	fleet.set(0, func(s *fakeSlot) { s.ownerDown = true })
	waitFor(t, "one failed probe", func() bool { return m.ProbeFailures.Value() >= 1 })
	fleet.set(0, func(s *fakeSlot) { s.ownerDown = false })
	waitFor(t, "probes to settle", func() bool { return m.Probes.Value() >= 12 })
	if n := fleet.slot(0).failovers; n != 0 {
		t.Fatalf("transient miss caused %d failovers, want 0", n)
	}
}

// The supervisor follows the fleet's slot count, however it changes: a
// slot the fleet gains is probed within two intervals, a slot it loses is
// never probed or failed over once the next tick has seen it go, and a
// slot that left while down releases its health_slots_down share.
func TestSupervisorFollowsTheFleet(t *testing.T) {
	const interval = 5 * time.Millisecond
	fleet := newFakeFleet(2)
	// Slot 1's owner is down for good and cannot be promoted: the slot
	// holds a down verdict until it leaves.
	fleet.set(1, func(s *fakeSlot) { s.ownerDown = true; s.failoverErr = errors.New("no synced follower") })
	m := NewMetrics(nil)
	sup := NewSupervisor(fleet, Config{
		Interval: interval,
		Metrics:  m,
	})
	defer sup.Close()
	waitFor(t, "slot 1 declared down", func() bool { return m.SlotsDown.Value() == 1 })

	// Grow: the new slots are probed from the next tick on. Slot 0 is
	// probed once per tick, so its count is the clock: one probe may be a
	// tick already pending at the resize, the next is the first tick that
	// can see the new slots, and the one after that is the second interval.
	base := fleet.slot(0).probes
	fleet.resize(4)
	waitFor(t, "the grown slots to be probed", func() bool {
		return fleet.slot(2).probes > 0 && fleet.slot(3).probes > 0
	})
	for _, i := range []int{2, 3} {
		if after := fleet.slot(i).firstProbeAfter - base; after > 3 {
			t.Fatalf("slot %d first probed after %d ticks of slot 0, want within two intervals", i, after)
		}
	}

	// Shrink past the down slot: its loop stops, its gauge share goes.
	base = fleet.slot(0).probes
	fleet.resize(1)
	waitFor(t, "the down slot to release the gauge", func() bool { return m.SlotsDown.Value() == 0 })
	waitFor(t, "two ticks after the shrink", func() bool { return fleet.slot(0).probes >= base+3 })
	before := len(fleet.strays())
	base = fleet.slot(0).probes
	waitFor(t, "the kept slot to keep probing", func() bool { return fleet.slot(0).probes >= base+10 })
	if got := fleet.strays(); len(got) != before {
		t.Fatalf("removed slots were still called after the shrink: %v", got[before:])
	}

	// Grow back over the same index: a fresh detector, probes resume.
	fleet.resize(2)
	waitFor(t, "the re-added slot to be probed", func() bool { return fleet.slot(1).probes >= 3 })
	if v := m.SlotsDown.Value(); v != 0 {
		t.Fatalf("health_slots_down=%v with every slot healthy, want 0", v)
	}
}
