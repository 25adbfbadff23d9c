package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
)

// usageCounters is one tenant's metering state: monotonic request counts
// per accounting group, byte totals, and refusal counts. Everything is an
// atomic, bumped on the request path without locks; the ledger flusher
// reads them with plain Loads (each counter individually exact, the set
// as a whole a moment-in-time view — fine for billing snapshots that are
// themselves monotone).
type usageCounters struct {
	requests    [numGroups]atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	limited     atomic.Uint64
	shed        atomic.Uint64
	quotaDenied atomic.Uint64
}

// usageSnapshot is the wire form of one tenant's counters — the ledger
// record payload and the /admin/v1/usage response entry.
type usageSnapshot struct {
	Requests    map[string]uint64 `json:"requests,omitempty"`
	BytesIn     uint64            `json:"bytes_in"`
	BytesOut    uint64            `json:"bytes_out"`
	Limited     uint64            `json:"limited,omitempty"`
	Shed        uint64            `json:"shed,omitempty"`
	QuotaDenied uint64            `json:"quota_denied,omitempty"`
	// QuotaBytes and QuotaRemaining appear only in /admin/v1/usage
	// responses, never in ledger records (the quota is key-file config,
	// not usage).
	QuotaBytes     int64  `json:"quota_bytes,omitempty"`
	QuotaRemaining *int64 `json:"quota_remaining,omitempty"`
}

func (u *usageCounters) snapshot() usageSnapshot {
	s := usageSnapshot{
		BytesIn:     u.bytesIn.Load(),
		BytesOut:    u.bytesOut.Load(),
		Limited:     u.limited.Load(),
		Shed:        u.shed.Load(),
		QuotaDenied: u.quotaDenied.Load(),
	}
	for g := Group(0); g < numGroups; g++ {
		if n := u.requests[g].Load(); n > 0 {
			if s.Requests == nil {
				s.Requests = make(map[string]uint64, int(numGroups))
			}
			s.Requests[g.String()] = n
		}
	}
	return s
}

// load seeds the counters from a recovered snapshot. Only called during
// open, before any traffic.
func (u *usageCounters) load(s usageSnapshot) {
	u.bytesIn.Store(s.BytesIn)
	u.bytesOut.Store(s.BytesOut)
	u.limited.Store(s.Limited)
	u.shed.Store(s.Shed)
	u.quotaDenied.Store(s.QuotaDenied)
	for g := Group(0); g < numGroups; g++ {
		u.requests[g].Store(s.Requests[g.String()])
	}
}

// total is a cheap change detector: the flusher skips appending a record
// when nothing moved since the last flush.
func (u *usageCounters) total() uint64 {
	n := u.bytesIn.Load() + u.bytesOut.Load() + u.limited.Load() + u.shed.Load() + u.quotaDenied.Load()
	for g := Group(0); g < numGroups; g++ {
		n += u.requests[g].Load()
	}
	return n
}

// usageRecord is one ledger entry: every tenant's cumulative counters at
// append time. Records are absolute, not deltas, so recovery is "keep the
// last record" and a torn tail costs at most one flush interval of
// usage — counters recover to a value at or below the true one and stay
// monotonic.
type usageRecord struct {
	Tenants map[string]usageSnapshot `json:"tenants"`
}

// Meter tracks per-tenant usage and persists it through a journaled
// ledger. The tenant set is fixed at construction (the key file plus the
// user pseudo-tenant), so the request path reads a pre-resolved counter
// pointer off the Tenant and the map below is only walked by flushes and
// reports.
type Meter struct {
	tenants map[string]*usageCounters
	order   []string // stable report order: key-file order, then users

	mu      sync.Mutex // guards ledger appends and lastTotal
	ledger  *journal.Journal
	flushes *obs.Counter
	last    uint64 // total() at the last append

	stop chan struct{}
	done chan struct{}
}

// newMeter builds the meter for a key set, recovering prior usage from
// the ledger directory when one is configured (dir == "" meters in
// memory only). flushEvery bounds how much usage a crash can lose.
func newMeter(ks *KeySet, dir string, flushEvery time.Duration, reg *obs.Registry, flushes *obs.Counter) (*Meter, error) {
	m := &Meter{
		tenants: make(map[string]*usageCounters, len(ks.Tenants())+1),
		flushes: flushes,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, t := range ks.Tenants() {
		t.usage = &usageCounters{}
		m.tenants[t.name] = t.usage
		m.order = append(m.order, t.name)
	}
	ut := ks.UserTenant()
	ut.usage = &usageCounters{}
	m.tenants[ut.name] = ut.usage
	m.order = append(m.order, ut.name)

	if dir != "" {
		j, err := journal.Open(dir, journal.Options{
			Metrics: journal.NewMetrics(reg, "usage"),
		})
		if err != nil {
			return nil, fmt.Errorf("gateway: opening usage ledger: %w", err)
		}
		if err := m.recover(j); err != nil {
			j.Close()
			return nil, err
		}
		m.ledger = j
	}

	go m.flushLoop(flushEvery)
	return m, nil
}

// recover replays the ledger — newest snapshot, then the record suffix —
// keeping the last record seen. Counters resume from the recovered
// values, so per-tenant usage is monotonic across restarts.
func (m *Meter) recover(j *journal.Journal) error {
	var last *usageRecord
	apply := func(payload []byte) error {
		var rec usageRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("gateway: corrupt usage record: %w", err)
		}
		last = &rec
		return nil
	}
	snap, lsn, err := j.Snapshot()
	if err != nil {
		return fmt.Errorf("gateway: reading usage snapshot: %w", err)
	}
	if snap != nil {
		raw, err := io.ReadAll(snap) // one usage record
		snap.Close()
		if err != nil {
			return fmt.Errorf("gateway: reading usage snapshot: %w", err)
		}
		if err := apply(raw); err != nil {
			return err
		}
	}
	if err := j.Replay(lsn, func(_ uint64, payload []byte) error {
		return apply(payload)
	}); err != nil {
		return fmt.Errorf("gateway: replaying usage ledger: %w", err)
	}
	if last == nil {
		return nil
	}
	for name, snap := range last.Tenants {
		// Tenants removed from the key file keep their ledger history but
		// have no live counters; their usage resurfaces if they return.
		if u, ok := m.tenants[name]; ok {
			u.load(snap)
		}
	}
	m.last = m.totalAll()
	return nil
}

func (m *Meter) totalAll() uint64 {
	var n uint64
	for _, u := range m.tenants {
		n += u.total()
	}
	return n
}

func (m *Meter) flushLoop(every time.Duration) {
	defer close(m.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Flush()
		case <-m.stop:
			return
		}
	}
}

// Flush appends the current usage to the ledger if anything changed since
// the last append. Safe to call concurrently with traffic.
func (m *Meter) Flush() error {
	if m.ledger == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.totalAll()
	if cur == m.last {
		return nil
	}
	rec := usageRecord{Tenants: make(map[string]usageSnapshot, len(m.tenants))}
	for name, u := range m.tenants {
		rec.Tenants[name] = u.snapshot()
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := m.ledger.Append(raw); err != nil {
		return fmt.Errorf("gateway: appending usage record: %w", err)
	}
	m.last = cur
	m.flushes.Inc()
	return nil
}

// Close stops the flusher, writes a final record, compacts the ledger
// into a snapshot, and closes it. After a clean Close the recovered
// usage is exact; a crash loses at most one flush interval.
func (m *Meter) Close() error {
	close(m.stop)
	<-m.done
	if m.ledger == nil {
		return nil
	}
	flushErr := m.Flush()
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn := m.ledger.LastLSN(); lsn > 0 {
		rec := usageRecord{Tenants: make(map[string]usageSnapshot, len(m.tenants))}
		for name, u := range m.tenants {
			rec.Tenants[name] = u.snapshot()
		}
		if raw, err := json.Marshal(rec); err == nil {
			// Snapshot failures are non-sticky; the appended records still
			// recover. Close proceeds.
			_ = m.ledger.WriteSnapshot(lsn, func(w io.Writer) error {
				_, err := w.Write(raw)
				return err
			})
		}
	}
	if err := m.ledger.Close(); err != nil {
		return err
	}
	return flushErr
}

// adopt binds ks's tenants to the meter, reusing the existing counters
// of any tenant name already known so metered usage — the billing record
// — is continuous across key rotations. Tenants new to the set start at
// zero; tenants dropped from the set keep their counters (and ledger
// history) in case a later reload brings them back.
func (m *Meter) adopt(ks *KeySet) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bind := func(t *Tenant) {
		u, ok := m.tenants[t.name]
		if !ok {
			u = &usageCounters{}
			m.tenants[t.name] = u
			m.order = append(m.order, t.name)
		}
		t.usage = u
	}
	for _, t := range ks.Tenants() {
		bind(t)
	}
	bind(ks.UserTenant())
}

// Report returns every tenant's usage, quota context included, in stable
// order as a name-keyed map for /admin/v1/usage.
func (m *Meter) Report(ks *KeySet) map[string]usageSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]usageSnapshot, len(m.tenants))
	quota := make(map[string]int64, len(ks.Tenants()))
	for _, t := range ks.Tenants() {
		quota[t.name] = t.quota
	}
	for name, u := range m.tenants {
		s := u.snapshot()
		if q := quota[name]; q > 0 {
			s.QuotaBytes = q
			rem := q - int64(s.BytesOut)
			if rem < 0 {
				rem = 0
			}
			s.QuotaRemaining = &rem
		}
		out[name] = s
	}
	return out
}
