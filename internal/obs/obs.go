// Package obs is the platform's stdlib-only metrics subsystem: atomic
// counters and gauges, lock-free sharded-atomic latency histograms, and a
// Registry of labeled metric families with a Prometheus-text exporter.
//
// Design constraints, in order:
//
//  1. The hot path must be free: Counter.Add, Gauge.Set, and
//     Histogram.Observe perform no allocation and take no locks, so the
//     delivery pipeline, journal fsync path, and HTTP middleware can call
//     them per operation. The allocation-free guarantee is pinned by a
//     testing.AllocsPerRun test and a CI benchmark smoke.
//  2. Resolution of a labeled child (Vec.With) may lock and allocate —
//     instrumentation resolves its children once, at construction, and
//     holds the pointers.
//  3. Only aggregates are exported. No metric carries a user ID, profile
//     attribute, or audience membership; label cardinality is bounded by
//     construction (routes, shard indices, status classes). This keeps
//     /metrics inside the same trust boundary as the advertiser API.
//
// Everything registers into a Registry; the process-wide Default registry
// is what adplatformd serves on GET /metrics. Unit tests that need
// isolation build their own Registry.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Default is the process-wide registry. Package-level instrumentation
// (delivery, platform, workload) registers here at init; adplatformd
// exports it on GET /metrics.
var Default = NewRegistry()

// Kind is a metric family's type.
type Kind int

// Family kinds, matching the Prometheus TYPE names they export as.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing counter. The trailing pad keeps
// counters resolved into adjacent heap slots from false-sharing a cache
// line under concurrent writers.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// NewCounter returns a standalone (unregistered) counter — the no-op
// instrumentation components fall back to when no registry is wired.
func NewCounter() *Counter { return new(Counter) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down (stored as IEEE-754
// bits in one atomic word).
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// NewGauge returns a standalone (unregistered) gauge.
func NewGauge() *Gauge { return new(Gauge) }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adds delta (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Registry holds metric families by name. All methods are safe for
// concurrent use; family and child creation are get-or-create, so
// re-registering an identical family (a second server in one process, a
// re-booted backend in tests) returns the existing one.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: a kind, a label schema, and the
// children (one per label-value combination).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]*child
	order    []string // child keys in creation order
}

type child struct {
	labelValues []string
	metric      any // *Counter, *Gauge, or *Histogram
}

// childKey joins label values into a map key. Label values never contain
// 0x1f in practice; collisions would only merge two children's identities,
// never corrupt memory.
func childKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// getFamily returns the named family, creating it if absent. A name reused
// with a different kind or label schema is a programming error and panics:
// the exporter could not represent both.
//
// A nil *Registry is the un-instrumented registry: every call returns a
// fresh detached family, whose children count and observe like any other
// but are exported nowhere. Code that takes an optional registry passes it
// straight through instead of keeping a second, unregistered constructor.
func (r *Registry) getFamily(name, help string, kind Kind, labels []string) *family {
	if r == nil {
		return &family{name: name, kind: kind, labels: labels, children: make(map[string]*child)}
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:     name,
				help:     help,
				kind:     kind,
				labels:   append([]string(nil), labels...),
				children: make(map[string]*child),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || !sameLabels(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, f.kind, f.labels))
	}
	return f
}

func sameLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// getChild returns the family's child for the given label values, creating
// it via mk if absent.
func (f *family) getChild(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q: %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := childKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c.metric
	}
	c = &child{labelValues: append([]string(nil), values...), metric: mk()}
	f.children[key] = c
	f.order = append(f.order, key)
	return c.metric
}

// Counter registers (or finds) an unlabeled counter family and returns its
// single child.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getFamily(name, help, KindCounter, nil)
	return f.getChild(nil, func() any { return NewCounter() }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge family and returns its
// single child.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.getFamily(name, help, KindGauge, nil)
	return f.getChild(nil, func() any { return NewGauge() }).(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram family and returns
// its single child.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.getFamily(name, help, KindHistogram, nil)
	return f.getChild(nil, func() any { return NewHistogram() }).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, KindCounter, labels)}
}

// With returns the child for the given label values, creating it at zero
// if absent. Resolve once and hold the pointer; With locks and may
// allocate.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.getChild(values, func() any { return NewCounter() }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, KindGauge, labels)}
}

// With returns the child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.getChild(values, func() any { return NewGauge() }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.getFamily(name, help, KindHistogram, labels)}
}

// With returns the child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.getChild(values, func() any { return NewHistogram() }).(*Histogram)
}

// FamilyInfo describes one registered family — what the exporter will emit
// and what docs/OPERATIONS.md must catalog.
type FamilyInfo struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
}

// Families lists every registered family, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind,
			Labels: append([]string(nil), f.labels...),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedFamilies returns families sorted by name for deterministic export.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns the family's children with their label values,
// sorted by key for deterministic export.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	out := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	f.mu.RUnlock()
	return out
}
