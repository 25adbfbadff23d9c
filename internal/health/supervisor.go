package health

import (
	"context"
	"time"
)

// Fleet is the recovery surface the supervisor drives: the ring's slots,
// addressed by index. *cluster.Cluster implements it. Every method acts on
// whichever process is the slot's *current* owner, so after a promotion the
// probe loop watches the new owner with no re-wiring, and Shards is read
// live, so a slot the ring gains or loses by any route — an admin reshard,
// a stale-ring refresh, a boot that adopted the fleet's ring — is
// supervised or released at the next tick.
type Fleet interface {
	// Shards is the current number of slots.
	Shards() int
	// ProbeSlotOwner checks the slot's current owner; nil means healthy.
	ProbeSlotOwner(ctx context.Context, slot int) error
	// FailoverSlot promotes the best synced follower to owner, fences the
	// deposed owner behind a new ring version, and re-arms the replica
	// chain; with force false it refuses while the owner is healthy. It
	// returns the promoted member's index in the chain, or an error if no
	// follower is eligible (the supervisor retries on the next tick).
	FailoverSlot(slot int, force bool) (int, error)
	// SlotDegraded reports whether the slot's chain is degraded — a
	// detached or lagging follower (typically the deposed owner, back from
	// the dead) that should be resynced.
	SlotDegraded(slot int) bool
	// HealSlot resyncs degraded followers onto the current owner, demoting
	// a returning stale owner into a follower.
	HealSlot(slot int) error
}

// healEvery is how many probe ticks pass between heal checks while the
// owner is healthy.
const healEvery = 4

// Config parameterizes a Supervisor.
type Config struct {
	// Interval is the probe period per slot (default 500ms), and bounds
	// each probe; the slot count is reconciled against the fleet at the
	// same period.
	Interval time.Duration
	// OnFailover, when set, is called after each successful automatic
	// promotion with the elapsed time from the down verdict to the
	// completed promotion.
	OnFailover func(slot int, detectToPromote time.Duration)
	// Metrics receives the health_* instrument set; nil uses
	// unregistered no-op instruments.
	Metrics *Metrics
	// Logf, when set, receives recovery decisions (promotion, heal,
	// failed attempts).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c
}

// Supervisor runs one probe-and-recover loop per slot of a fleet.
type Supervisor struct {
	cfg    Config
	fleet  Fleet
	cancel context.CancelFunc
	done   chan struct{} // closed when every loop has exited
}

// slotLoop is one slot's running probe loop.
type slotLoop struct {
	tick   chan struct{} // holds at most one pending tick
	cancel context.CancelFunc
	done   chan struct{} // closed when the loop has exited
}

// NewSupervisor starts supervising every slot of fleet; Close stops it.
func NewSupervisor(fleet Fleet, cfg Config) *Supervisor {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{cfg: cfg.withDefaults(), fleet: fleet, cancel: cancel, done: make(chan struct{})}
	go s.run(ctx)
	return s
}

// Close stops every probe loop and waits for them to exit.
func (s *Supervisor) Close() {
	s.cancel()
	<-s.done
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// run is the supervisor's clock. Every interval it reconciles the slot
// loops with the fleet's slot count — a slot past the end is cancelled
// before this tick reaches anyone, a new slot gets a loop with a fresh
// detector — and then hands every loop one tick. The hand-off never
// blocks: a loop still busy with a slow probe or failover keeps its one
// pending tick and skips the rest, so it delays no other slot.
func (s *Supervisor) run(ctx context.Context) {
	defer close(s.done)
	// loops[i] is the newest loop slot i ever had; the first live of them
	// are running, the rest were cancelled and may still be finishing.
	var loops []*slotLoop
	live := 0
	defer func() {
		for _, l := range loops {
			<-l.done
		}
	}()
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		n := s.fleet.Shards()
		for ; live > n; live-- {
			loops[live-1].cancel()
		}
		for ; live < n; live++ {
			lctx, cancel := context.WithCancel(ctx)
			l := &slotLoop{tick: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
			var prev *slotLoop
			if live < len(loops) {
				prev = loops[live]
				loops[live] = l
			} else {
				loops = append(loops, l)
			}
			go s.watch(lctx, live, l, prev)
		}
		for _, l := range loops[:live] {
			select {
			case l.tick <- struct{}{}:
			default:
			}
		}
	}
}

// watch is one slot's probe loop: probe, feed the detector, and act on
// the verdict. On StateDown it attempts failover every tick until one
// succeeds, then resets the detector (the probe target is now the new
// owner). While the owner is up it periodically heals degraded followers
// back into the chain. A slot that left the ring and came back starts
// only once the loop it had before (prev) has exited, so a slot never has
// two.
func (s *Supervisor) watch(ctx context.Context, slot int, l, prev *slotLoop) {
	defer close(l.done)
	if prev != nil {
		<-prev.done
	}
	m := s.cfg.Metrics
	det := NewDetector()
	// The gauge counts supervised slots; once this loop exits the slot no
	// longer is one.
	defer func() {
		if det.State() == StateDown {
			m.SlotsDown.Add(-1)
		}
	}()
	var downSince time.Time
	for tick := 1; ; tick++ {
		select {
		case <-ctx.Done():
			return
		case <-l.tick:
		}
		if ctx.Err() != nil {
			return // cancelled with a tick pending: the slot left the ring
		}

		pctx, cancel := context.WithTimeout(ctx, s.cfg.Interval)
		err := s.fleet.ProbeSlotOwner(pctx, slot)
		cancel()
		m.Probes.Inc()
		if err != nil {
			m.ProbeFailures.Inc()
		}

		wasDown := det.State() == StateDown
		state, changed := det.Observe(err == nil)
		if changed {
			m.Transitions.Inc()
			switch {
			case state == StateDown:
				m.SlotsDown.Add(1)
				downSince = time.Now()
				s.logf("health: slot %d owner declared down (probe: %v)", slot, err)
			case wasDown:
				// The owner answered again before any promotion succeeded.
				m.SlotsDown.Add(-1)
			}
		}

		switch state {
		case StateDown:
			member, ferr := s.fleet.FailoverSlot(slot, false)
			if ferr != nil {
				m.FailoverFailures.Inc()
				s.logf("health: slot %d failover attempt failed: %v", slot, ferr)
				continue
			}
			elapsed := time.Since(downSince)
			m.Failovers.Inc()
			m.SlotsDown.Add(-1)
			m.DetectToPromote.Observe(elapsed)
			s.logf("health: slot %d promoted member %d to owner %v after down verdict", slot, member, elapsed)
			det.Reset()
			if s.cfg.OnFailover != nil {
				s.cfg.OnFailover(slot, elapsed)
			}
		case StateUp:
			if tick%healEvery == 0 && s.fleet.SlotDegraded(slot) {
				if herr := s.fleet.HealSlot(slot); herr != nil {
					m.HealFailures.Inc()
					s.logf("health: slot %d heal attempt failed: %v", slot, herr)
				} else {
					m.Heals.Inc()
					s.logf("health: slot %d healed degraded followers", slot)
				}
			}
		}
	}
}
