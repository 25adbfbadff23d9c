// Package trace is the platform's stdlib-only distributed tracing
// subsystem: 128-bit trace IDs, parent/child spans propagated through
// context.Context inside a process and W3C traceparent-style headers
// across process boundaries, head-based probabilistic sampling, and a
// fixed-size lock-free ring of completed spans per process that the
// admin API serves (and the router stitches across shards) as NDJSON.
//
// Design constraints, in order:
//
//  1. The unsampled path must be free: deciding "not this request" and
//     flowing that decision through every instrumented layer performs
//     no allocation and takes no locks. A nil *Span is the unsampled
//     span — every method is a nil-receiver no-op, StartChild of a
//     context without a span returns the context unchanged, and the
//     guarantee is pinned by TestSpanZeroAlloc (BenchmarkSpanUnsampled
//     is its time), exactly like obs.Observe.
//  2. Sampling is head-based and decided once, at the root. Child and
//     remote spans inherit the decision; the traceparent sampled flag
//     carries it across RPC hops. Errors and over-threshold latency on
//     *unsampled* requests cannot retroactively produce child spans, so
//     those record a synthetic "forced" root span (reason-tagged) —
//     enough to see that and where it hurt, honestly short of a full
//     trace.
//  3. Sampling is replayable: the sampler is a SplitMix64 stream seeded
//     via stats.SubSeed, so a failing seeded run samples the same
//     requests when replayed.
//  4. Completed spans land in a fixed-size ring of atomic pointers —
//     push is one atomic increment plus one atomic swap; overwriting an
//     unread span counts a drop. Nothing on the request path ever
//     blocks on a reader.
package trace

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// TraceID is a 128-bit trace identifier, shared by every span in one
// request's causal tree across all processes it touches.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, unique within its trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Event is a timestamped point-in-time marker inside a span (a retry
// fired, a breaker opened), recorded as an offset from span start.
type Event struct {
	Name   string
	Offset time.Duration
}

// SpanData is a completed span record — what the ring stores and the
// admin API serializes. Parent is zero for root spans.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Service  string
	Start    time.Time
	Duration time.Duration
	Error    string
	Forced   string // "", "error", or "slow"
	Attrs    []Attr
	Events   []Event
}

// Span is a live, sampled span. The nil *Span is the unsampled span:
// every method is a nil-receiver no-op, so instrumentation never
// branches on the sampling decision. A Span may be annotated from
// concurrent goroutines (scatter-gather workers);
// a small mutex guards the mutable fields.
type Span struct {
	tracer *Tracer

	mu       sync.Mutex
	finished bool
	data     SpanData
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil if the request is
// unsampled (or ctx never passed through instrumentation).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartChild starts a child of the span carried by ctx and returns the
// child-carrying context. If ctx has no span — the request is unsampled
// — it returns (ctx, nil) without allocating, which is what makes deep
// instrumentation free: no tracer handle, no branch, no cost.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.newSpan(name, parent.data.Service, parent.data.TraceID, parent.data.SpanID)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// IDs returns the span's trace and span IDs for header injection and
// response echo; zero values when unsampled.
func (s *Span) IDs() (TraceID, SpanID) {
	if s == nil {
		return TraceID{}, SpanID{}
	}
	return s.data.TraceID, s.data.SpanID
}

// Annotate attaches a key/value attribute.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.finished {
		s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Event records a point-in-time marker at the current offset from span
// start.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if !s.finished {
		s.data.Events = append(s.data.Events, Event{Name: name, Offset: now.Sub(s.data.Start)})
	}
	s.mu.Unlock()
}

// SetError records the error string; the last call wins. A nil err is
// ignored, so instrumentation can call SetError(err) unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.finished {
		s.data.Error = err.Error()
	}
	s.mu.Unlock()
}

// Finish stamps the duration and publishes the span to the tracer's
// ring. Finish is idempotent; annotations after Finish are dropped
// (the ring hands the record to concurrent readers).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.data.Duration = now.Sub(s.data.Start)
	s.mu.Unlock()
	s.tracer.finishedC.Inc()
	s.tracer.ring.Load().push(&s.data)
}

// Options configures a Tracer.
type Options struct {
	// Service labels every root span started by this tracer with the
	// process's role ("gateway", "router", "shard-0", ...).
	Service string
	// SampleRate is the head-sampling probability in [0,1]. 0 samples
	// nothing (forced error/slow spans still record); 1 samples
	// everything.
	SampleRate float64
	// RingSize is the completed-span ring capacity; 0 means 4096.
	RingSize int
	// SlowThreshold is the latency above which an unsampled request
	// records a forced span; 0 means 500ms, negative disables.
	SlowThreshold time.Duration
	// Seed seeds the sampler stream (stats.SubSeed the process seed for
	// replayable sampling).
	Seed uint64
	// Registry receives the trace_* metric families; nil means
	// obs.Default.
	Registry *obs.Registry
}

// Tracer owns the sampling decision, ID generation, and the completed
// span ring for one process (usually the package Default).
type Tracer struct {
	service   atomic.Pointer[string]
	threshold atomic.Uint64 // sample if rng < threshold; MaxUint64 = always
	slowNanos atomic.Int64
	rngState  atomic.Uint64
	ring      atomic.Pointer[ring]

	sampledC   *obs.Counter
	unsampledC *obs.Counter
	finishedC  *obs.Counter
	droppedC   *obs.Counter
	forcedErrC *obs.Counter
	forcedSloC *obs.Counter
}

func (t *Tracer) serviceName() string {
	if p := t.service.Load(); p != nil {
		return *p
	}
	return ""
}

// Default is the process-wide tracer, paralleling obs.Default:
// instrumentation that has no explicit tracer wired starts roots here,
// and adplatformd configures it from flags at boot. It starts with a
// conservative 1% sample rate so tracing is on by default everywhere.
var Default = NewTracer(Options{Service: "proc", SampleRate: 0.01})

// NewTracer builds a tracer and registers its trace_* metric families.
func NewTracer(o Options) *Tracer {
	t := &Tracer{}
	t.configureMetrics(o.Registry)
	t.Configure(o)
	return t
}

func (t *Tracer) configureMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	t.sampledC = reg.Counter("trace_spans_sampled_total",
		"Root spans head-sampled into a trace.")
	t.unsampledC = reg.Counter("trace_spans_unsampled_total",
		"Root span opportunities that the head sampler skipped.")
	t.finishedC = reg.Counter("trace_spans_finished_total",
		"Spans completed and published to the ring.")
	t.droppedC = reg.Counter("trace_spans_dropped_total",
		"Completed spans evicted from the ring before being read.")
	forced := reg.CounterVec("trace_forced_total",
		"Synthetic spans recorded for unsampled requests that errored or ran slow.",
		"reason")
	t.forcedErrC = forced.With("error")
	t.forcedSloC = forced.With("slow")
}

// Configure applies o to the tracer: sample rate, slow threshold, seed,
// service label, and — when the capacity changes — a fresh ring. Meant
// for boot-time configuration of Default; safe to call concurrently
// with traffic (spans in flight publish to whichever ring they race
// into).
func (t *Tracer) Configure(o Options) {
	svc := o.Service
	t.service.Store(&svc)
	t.threshold.Store(sampleThreshold(o.SampleRate))
	slow := o.SlowThreshold
	if slow == 0 {
		slow = 500 * time.Millisecond
	}
	t.slowNanos.Store(int64(slow))
	t.rngState.Store(o.Seed)
	size := o.RingSize
	if size <= 0 {
		size = 4096
	}
	if cur := t.ring.Load(); cur == nil || cur.cap() != size {
		t.ring.Store(newRing(size, t.droppedC))
	}
}

func sampleThreshold(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate >= 1:
		return math.MaxUint64
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// next advances the SplitMix64 sampler/ID stream. Concurrent callers
// interleave but every value is still unique and well-mixed.
func (t *Tracer) next() uint64 {
	x := t.rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sample makes the head decision for a new root.
func (t *Tracer) sample() bool {
	th := t.threshold.Load()
	if th == 0 {
		return false
	}
	if th == math.MaxUint64 {
		return true
	}
	return t.next() < th
}

// StartRoot makes the head-sampling decision and, when sampled, starts
// a root span with fresh trace and span IDs. Unsampled requests get
// (ctx, nil) back with zero allocation.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if !t.sample() {
		t.unsampledC.Inc()
		return ctx, nil
	}
	t.sampledC.Inc()
	var tid TraceID
	binary.BigEndian.PutUint64(tid[0:8], t.next())
	binary.BigEndian.PutUint64(tid[8:16], t.next())
	if tid.IsZero() {
		tid[15] = 1
	}
	s := t.newSpan(name, t.serviceName(), tid, SpanID{})
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartRemote continues a trace whose root lives in another process:
// the caller extracted (tid, parent) from a validated traceparent whose
// sampled flag was set, so the head decision is already made and this
// span is always live. The local service label is applied, which is how
// shard-side spans identify their process in a stitched trace.
func (t *Tracer) StartRemote(ctx context.Context, name string, tid TraceID, parent SpanID) (context.Context, *Span) {
	if tid.IsZero() {
		return t.StartRoot(ctx, name)
	}
	t.sampledC.Inc()
	s := t.newSpan(name, t.serviceName(), tid, parent)
	return context.WithValue(ctx, ctxKey{}, s), s
}

func (t *Tracer) newSpan(name, service string, tid TraceID, parent SpanID) *Span {
	var sid SpanID
	binary.BigEndian.PutUint64(sid[:], t.next())
	if sid.IsZero() {
		sid[7] = 1
	}
	return &Span{
		tracer: t,
		data: SpanData{
			TraceID: tid,
			SpanID:  sid,
			Parent:  parent,
			Name:    name,
			Service: service,
			Start:   time.Now(),
		},
	}
}

// Slow reports whether d exceeds the forced-span latency threshold.
// Free to call on every request.
func (t *Tracer) Slow(d time.Duration) bool {
	th := t.slowNanos.Load()
	return th > 0 && int64(d) > th
}

// Force records a synthetic, already-finished root span for an
// unsampled request that turned out to matter (errored, or ran past
// the slow threshold). reason must be "error" or "slow"; attrs may
// carry status, route, tenant. The caller checks the trigger first so
// the common unsampled path never builds the attrs slice.
func (t *Tracer) Force(name, reason string, start time.Time, d time.Duration, attrs ...Attr) {
	switch reason {
	case "error":
		t.forcedErrC.Inc()
	case "slow":
		t.forcedSloC.Inc()
	}
	var tid TraceID
	binary.BigEndian.PutUint64(tid[0:8], t.next())
	binary.BigEndian.PutUint64(tid[8:16], t.next())
	if tid.IsZero() {
		tid[15] = 1
	}
	var sid SpanID
	binary.BigEndian.PutUint64(sid[:], t.next())
	if sid.IsZero() {
		sid[7] = 1
	}
	t.finishedC.Inc()
	t.ring.Load().push(&SpanData{
		TraceID:  tid,
		SpanID:   sid,
		Name:     name,
		Service:  t.serviceName(),
		Start:    start,
		Duration: d,
		Forced:   reason,
		Attrs:    attrs,
	})
}

// Snapshot returns the completed spans currently in the ring, oldest
// first by start time. The returned records are shared with the ring;
// callers must not mutate them.
func (t *Tracer) Snapshot() []*SpanData {
	return t.ring.Load().snapshot()
}
