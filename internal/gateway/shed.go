package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// shedder is the admission controller: one inflight budget shared by all
// classes, with per-class ceilings that implement strict priority, moved
// between a floor and a ceiling by measured backend health.
//
// Reporting traffic may occupy at most half the budget, advertiser
// mutations 80%, and user ad-serving all of it — so as load climbs the
// low-priority classes hit their ceilings (and start returning 503) while
// headroom remains for the protected class. A single atomic counter holds
// the admitted count; acquire is one CAS in the common case and
// allocation-free always.
//
// The budget itself follows an AIMD law — the shape TCP uses for
// congestion windows, stable for the same reasons: multiplicative decrease
// reacts in one window to overload, additive increase probes capacity
// gently enough not to re-trigger it. Every admitted request's backend
// latency and status feed a private histogram; each tick diffs snapshots
// into a per-window view (the registered gateway_request_seconds family is
// cumulative and per-class, so it cannot answer "what was p99 over the
// last 100ms"). If the window's p99 exceeded the SLO or the backend
// returned any 5xx, the budget halves, never below the floor; otherwise it
// grows by a fixed step, never above the ceiling. An idle window — no
// completions at all — leaves the budget alone: silence is not evidence of
// health. With an SLO the floor is a sixteenth of the ceiling, so probes
// keep flowing and recovery can be observed; without one the floor is the
// ceiling, and the same law holds a fixed budget.
type shedder struct {
	inflight atomic.Int64
	limit    [numClasses]atomic.Int64

	m   *metrics
	slo time.Duration

	maxBudget int64 // the ceiling: configured Inflight
	minBudget int64 // the floor
	step      int64 // additive increase per healthy window

	hist *obs.Histogram // private, unregistered: windowed by snapshot diff
	errs atomic.Uint64  // cumulative inner 5xx count, windowed the same way

	prev     obs.HistogramSnapshot
	prevErrs uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// aimdInterval is the control loop's window. Short enough to halve the
// budget within a few hundred milliseconds of a backend stall — well
// inside the failure detector's promotion budget — and long enough that
// a window at serving rates holds a meaningful sample.
const aimdInterval = 100 * time.Millisecond

// newShedder sizes the controller for a total inflight budget; newAIMD
// arms the law that moves it.
func newShedder(budget int) *shedder {
	s := &shedder{}
	s.setBudget(budget)
	return s
}

// newAIMD arms s's control law between a floor and maxBudget: a sixteenth
// of it with a positive slo, all of it with slo zero — a fixed budget. It
// returns s; run starts the loop.
func newAIMD(s *shedder, m *metrics, slo time.Duration, maxBudget int) *shedder {
	s.m, s.slo = m, slo
	s.maxBudget = int64(maxBudget)
	s.minBudget = s.maxBudget
	if slo > 0 {
		s.minBudget = max(1, s.maxBudget/16)
	}
	s.step = max(1, s.maxBudget/20)
	s.hist = obs.NewHistogram()
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	return s
}

// setBudget re-derives every class ceiling from a new total budget. The
// per-class ceilings are fractions of the budget, each at least 1 so a
// tiny budget still serves every class when idle. The control law calls
// this as measured capacity moves; requests already admitted are never
// evicted — a shrink only slows new admissions.
func (s *shedder) setBudget(budget int) {
	if budget < 1 {
		budget = 1
	}
	s.limit[ClassUser].Store(int64(budget))
	s.limit[ClassMutation].Store(max(1, int64(budget)*4/5))
	s.limit[ClassReport].Store(max(1, int64(budget)/2))
}

// budget returns the current total budget (the user-class ceiling).
func (s *shedder) budget() int64 { return s.limit[ClassUser].Load() }

// acquire admits one request of class c, or reports that it must be
// shed. A successful acquire must be paired with exactly one release.
func (s *shedder) acquire(c Class) bool {
	limit := s.limit[c].Load()
	for {
		cur := s.inflight.Load()
		if cur >= limit {
			return false
		}
		if s.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// release returns one admitted request's slot.
func (s *shedder) release() { s.inflight.Add(-1) }

// observe records one admitted request's backend latency and status.
// Called on the request path after the inner handler returns; both
// operations are lock-free atomic bumps.
func (s *shedder) observe(elapsed time.Duration, status int) {
	s.hist.Observe(elapsed)
	if status >= 500 {
		s.errs.Add(1)
	}
}

// tick runs one control decision over the window since the last tick.
func (s *shedder) tick() {
	cur := s.hist.Snapshot()
	curErrs := s.errs.Load()
	win := diffSnapshot(cur, s.prev)
	winErrs := curErrs - s.prevErrs
	s.prev, s.prevErrs = cur, curErrs

	if win.Count == 0 && winErrs == 0 {
		return
	}

	p99 := win.Quantile(0.99)
	s.m.aimdP99.Set(p99.Seconds())

	budget := s.budget()
	if winErrs > 0 || p99 > s.slo {
		next := max(s.minBudget, budget/2)
		if next != budget {
			s.setBudget(int(next))
			s.m.aimdShrinks.Inc()
		}
	} else {
		next := min(budget+s.step, s.maxBudget)
		if next != budget {
			s.setBudget(int(next))
			s.m.aimdGrows.Inc()
		}
	}
	s.m.aimdBudget.Set(float64(s.budget()))
}

// run is the control loop; New starts it.
func (s *shedder) run() {
	defer close(s.done)
	t := time.NewTicker(aimdInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.tick()
		}
	}
}

// close stops the control loop and waits for it to exit.
func (s *shedder) close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// diffSnapshot returns the observations cur holds beyond prev — the
// window between two snapshots of the same histogram. Per-stripe reads
// are not one consistent cut, so per-bucket counts can transiently run
// slightly behind; clamping at zero keeps the window well-formed.
func diffSnapshot(cur, prev obs.HistogramSnapshot) obs.HistogramSnapshot {
	var d obs.HistogramSnapshot
	if cur.Count > prev.Count {
		d.Count = cur.Count - prev.Count
	}
	if cur.SumNanos > prev.SumNanos {
		d.SumNanos = cur.SumNanos - prev.SumNanos
	}
	for i := range d.Buckets {
		if cur.Buckets[i] > prev.Buckets[i] {
			d.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
		}
	}
	return d
}
