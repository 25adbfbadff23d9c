package health

import (
	"context"
	"sync"
	"time"
)

// SlotController is the recovery surface the supervisor drives for one
// cluster slot. Implementations probe and act on whichever process is
// the slot's *current* owner, so after a promotion the probe loop
// automatically watches the new owner with no re-wiring.
type SlotController interface {
	// ProbeOwner checks the slot's current owner; nil means healthy.
	ProbeOwner(ctx context.Context) error
	// Failover promotes the best synced follower to owner, fences the
	// deposed owner behind a new ring version, and re-arms the replica
	// chain. It returns an error if no follower is eligible (the
	// supervisor retries on the next probe tick).
	Failover(ctx context.Context) error
	// NeedsHeal reports whether the slot's chain is degraded — a
	// detached or lagging follower (typically the deposed owner, back
	// from the dead) that should be resynced.
	NeedsHeal() bool
	// Heal resyncs degraded followers onto the current owner,
	// demoting a returning stale owner into a follower.
	Heal(ctx context.Context) error
}

// Config parameterizes a Supervisor.
type Config struct {
	// Interval is the probe period per slot (default 500ms).
	Interval time.Duration
	// Timeout bounds each probe and each recovery action (default:
	// Interval).
	Timeout time.Duration
	// Detector tunes the per-slot failure detector.
	Detector DetectorConfig
	// HealEvery is how many probe ticks pass between heal checks
	// while the owner is healthy (default 4).
	HealEvery int
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
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.HealEvery < 1 {
		c.HealEvery = 4
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	c.Detector = c.Detector.withDefaults()
	return c
}

// Supervisor runs one probe-and-recover loop per watched slot.
type Supervisor struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	slots map[int]*watch
}

// watch is one slot's running probe loop.
type watch struct {
	det    *Detector
	cancel context.CancelFunc
	done   chan struct{} // closed when the loop has exited
}

// NewSupervisor builds a supervisor; Watch arms slots, Close stops it.
func NewSupervisor(cfg Config) *Supervisor {
	ctx, cancel := context.WithCancel(context.Background())
	return &Supervisor{
		cfg:    cfg.withDefaults(),
		ctx:    ctx,
		cancel: cancel,
		slots:  make(map[int]*watch),
	}
}

// StateOf returns the detector verdict for a watched slot (StateUp for
// unwatched slots).
func (s *Supervisor) StateOf(slot int) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w, ok := s.slots[slot]; ok {
		return w.det.State()
	}
	return StateUp
}

// Watch starts the probe loop for one slot; it runs until Unwatch(slot)
// or Close. Watching a slot that is already watched replaces its loop
// (the old one has exited before the new one starts), so a slot never
// has two.
func (s *Supervisor) Watch(slot int, ctrl SlotController) {
	ctx, cancel := context.WithCancel(s.ctx)
	w := &watch{det: NewDetector(s.cfg.Detector), cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	old := s.slots[slot]
	s.slots[slot] = w
	s.mu.Unlock()
	if old != nil {
		old.cancel()
		<-old.done
	}
	go func() {
		defer close(w.done)
		s.run(ctx, slot, ctrl, w.det)
	}()
}

// Unwatch stops one slot's probe loop — the slot left the ring — and
// returns once the loop has exited, so no probe or recovery action for
// the slot runs after it. Unwatching an unwatched slot is a no-op.
func (s *Supervisor) Unwatch(slot int) {
	s.mu.Lock()
	w := s.slots[slot]
	delete(s.slots, slot)
	s.mu.Unlock()
	if w != nil {
		w.cancel()
		<-w.done
	}
}

// Close stops every probe loop and waits for them to exit.
func (s *Supervisor) Close() {
	s.cancel()
	s.mu.Lock()
	slots := s.slots
	s.slots = make(map[int]*watch)
	s.mu.Unlock()
	for _, w := range slots {
		<-w.done
	}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// run is one slot's probe loop: probe, feed the detector, and act on
// the verdict. On StateDown it attempts failover every tick until one
// succeeds, then resets the detector (the probe target is now the new
// owner). While the owner is up it periodically heals degraded
// followers back into the chain.
func (s *Supervisor) run(ctx context.Context, slot int, ctrl SlotController, det *Detector) {
	m := s.cfg.Metrics
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	var downSince time.Time
	tick := 0
	for {
		select {
		case <-ctx.Done():
			// The gauge counts watched slots; this one no longer is.
			s.mu.Lock()
			if det.State() == StateDown {
				m.SlotsDown.Add(-1)
			}
			s.mu.Unlock()
			return
		case <-ticker.C:
		}
		tick++

		pctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
		err := ctrl.ProbeOwner(pctx)
		cancel()
		m.Probes.Inc()
		if err != nil {
			m.ProbeFailures.Inc()
		}

		s.mu.Lock()
		state, changed := det.Observe(err == nil)
		s.mu.Unlock()
		if changed {
			m.Transitions.Inc()
			if state == StateDown {
				m.SlotsDown.Add(1)
				downSince = time.Now()
				s.logf("health: slot %d owner declared down (probe: %v)", slot, err)
			}
		}

		switch state {
		case StateDown:
			fctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
			ferr := ctrl.Failover(fctx)
			cancel()
			if ferr != nil {
				m.FailoverFailures.Inc()
				s.logf("health: slot %d failover attempt failed: %v", slot, ferr)
				continue
			}
			elapsed := time.Since(downSince)
			m.Failovers.Inc()
			m.SlotsDown.Add(-1)
			m.DetectToPromote.Observe(elapsed)
			s.logf("health: slot %d promoted a follower %v after down verdict", slot, elapsed)
			s.mu.Lock()
			det.Reset()
			s.mu.Unlock()
			if s.cfg.OnFailover != nil {
				s.cfg.OnFailover(slot, elapsed)
			}
		case StateUp:
			if tick%s.cfg.HealEvery == 0 && ctrl.NeedsHeal() {
				hctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
				herr := ctrl.Heal(hctx)
				cancel()
				if herr != nil {
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
