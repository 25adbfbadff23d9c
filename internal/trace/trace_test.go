package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

func testTracer(t *testing.T, o Options) *Tracer {
	t.Helper()
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return NewTracer(o)
}

// TestSpanZeroAlloc pins the contract the whole design hangs on: the
// unsampled path — root decision, child starts through an unsampled
// context, every span method on the nil span, and the slow check —
// performs zero allocations. Same discipline as obs.Observe.
func TestSpanZeroAlloc(t *testing.T) {
	tr := testTracer(t, Options{Service: "test", SampleRate: 0, Seed: 42})
	ctx := context.Background()
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		rctx, root := tr.StartRoot(ctx, "root")
		cctx, child := StartChild(rctx, "child")
		_, grand := StartChild(cctx, "grand")
		grand.Annotate("k", "v")
		grand.Event("e")
		grand.SetError(err)
		grand.Finish()
		child.Finish()
		root.SetError(err)
		root.Finish()
		if tr.Slow(time.Microsecond) {
			t.Fatal("microsecond counted as slow")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled span path allocates: %v allocs/op, want 0", allocs)
	}
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("unsampled run recorded %d spans", len(got))
	}
}

// TestInjectZeroAllocUnsampled pins that propagation is also free when
// unsampled: Inject of a nil span touches nothing.
func TestInjectZeroAllocUnsampled(t *testing.T) {
	h := make(http.Header)
	allocs := testing.AllocsPerRun(1000, func() {
		Inject(nil, h)
	})
	if allocs != 0 {
		t.Fatalf("nil Inject allocates: %v allocs/op", allocs)
	}
	if len(h) != 0 {
		t.Fatal("nil Inject set a header")
	}
}

func TestSampledTreeRecorded(t *testing.T) {
	tr := testTracer(t, Options{Service: "svc", SampleRate: 1, Seed: 7})
	ctx, root := tr.StartRoot(context.Background(), "http browse")
	if root == nil {
		t.Fatal("rate-1 root not sampled")
	}
	root.Annotate("route", "/browse")
	cctx, child := StartChild(ctx, "cluster.route")
	child.Event("retry")
	_, grand := StartChild(cctx, "journal.append")
	grand.SetError(fmt.Errorf("disk gone"))
	grand.Finish()
	child.Finish()
	root.Finish()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	rootTID, rootSID := root.IDs()
	byName := map[string]*SpanData{}
	for _, s := range spans {
		if s.TraceID != rootTID {
			t.Fatalf("span %q has trace %s, want %s", s.Name, s.TraceID, rootTID)
		}
		byName[s.Name] = s
	}
	if !byName["http browse"].Parent.IsZero() {
		t.Error("root span has a parent")
	}
	if byName["cluster.route"].Parent != rootSID {
		t.Error("child span not parented to root")
	}
	if byName["journal.append"].Parent != byName["cluster.route"].SpanID {
		t.Error("grandchild not parented to child")
	}
	if byName["journal.append"].Error != "disk gone" {
		t.Errorf("error = %q", byName["journal.append"].Error)
	}
	if byName["http browse"].Service != "svc" {
		t.Errorf("service = %q", byName["http browse"].Service)
	}
	if len(byName["cluster.route"].Events) != 1 || byName["cluster.route"].Events[0].Name != "retry" {
		t.Errorf("events = %+v", byName["cluster.route"].Events)
	}
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	count := func(seed uint64) (int, []bool) {
		tr := testTracer(t, Options{SampleRate: 0.25, Seed: seed})
		n := 0
		var picks []bool
		for i := 0; i < 4000; i++ {
			_, s := tr.StartRoot(context.Background(), "r")
			picks = append(picks, s != nil)
			if s != nil {
				n++
				s.Finish()
			}
		}
		return n, picks
	}
	n1, p1 := count(99)
	n2, p2 := count(99)
	if n1 != n2 {
		t.Fatalf("same seed sampled %d then %d", n1, n2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	if n1 < 700 || n1 > 1300 {
		t.Fatalf("rate 0.25 sampled %d of 4000", n1)
	}
	n3, _ := count(100)
	if n3 == n1 {
		t.Log("different seeds coincidentally sampled the same count (fine)")
	}
}

func TestRingEvictionCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	tr := testTracer(t, Options{SampleRate: 1, RingSize: 8, Registry: reg, Seed: 1})
	for i := 0; i < 20; i++ {
		_, s := tr.StartRoot(context.Background(), "r")
		s.Finish()
	}
	if got := len(tr.Snapshot()); got != 8 {
		t.Fatalf("ring holds %d spans, want 8", got)
	}
	if drops := reg.Counter("trace_spans_dropped_total", "").Value(); drops != 12 {
		t.Fatalf("dropped = %d, want 12", drops)
	}
}

func TestForcedSpans(t *testing.T) {
	reg := obs.NewRegistry()
	tr := testTracer(t, Options{SampleRate: 0, SlowThreshold: 100 * time.Millisecond, Registry: reg, Seed: 3})
	if !tr.Slow(150 * time.Millisecond) {
		t.Fatal("150ms not slow at 100ms threshold")
	}
	start := time.Now()
	tr.Force("http browse", "slow", start, 150*time.Millisecond, Attr{Key: "status", Value: "200"})
	tr.Force("http report", "error", start, time.Millisecond, Attr{Key: "status", Value: "500"})
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d forced spans, want 2", len(spans))
	}
	reasons := map[string]string{}
	for _, s := range spans {
		reasons[s.Name] = s.Forced
		if s.TraceID.IsZero() || s.SpanID.IsZero() {
			t.Errorf("forced span %q has zero IDs", s.Name)
		}
	}
	if reasons["http browse"] != "slow" || reasons["http report"] != "error" {
		t.Errorf("forced reasons = %v", reasons)
	}
	fv := reg.CounterVec("trace_forced_total", "", "reason")
	if fv.With("slow").Value() != 1 || fv.With("error").Value() != 1 {
		t.Error("forced counters not incremented")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := testTracer(t, Options{SampleRate: 1, Seed: 5})
	_, s := tr.StartRoot(context.Background(), "client")
	h := make(http.Header)
	Inject(s, h)
	v := h.Get(Header)
	if len(v) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", v, len(v))
	}
	tid, sid, ok := Extract(h)
	if !ok {
		t.Fatalf("round-trip extract failed for %q", v)
	}
	wtid, wsid := s.IDs()
	if tid != wtid || sid != wsid {
		t.Fatalf("extract = (%s,%s), want (%s,%s)", tid, sid, wtid, wsid)
	}
	s.Finish()
}

const (
	validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	// A future version with a trailing extension parses as version 00.
	futureTraceparent = "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-the-future-holds"
)

var malformedTraceparents = map[string]string{
	"empty":          "",
	"short":          "00-abc-def-01",
	"unsampled":      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
	"zero trace":     "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	"zero span":      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
	"bad hex":        "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
	"version ff":     "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	"uppercase":      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
	"v00 with extra": "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	"bad separator":  "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	if _, _, ok := ParseTraceparent(validTraceparent); !ok {
		t.Fatal("valid header rejected")
	}
	for name, v := range malformedTraceparents {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("%s: %q accepted", name, v)
		}
	}
	if _, _, ok := ParseTraceparent(futureTraceparent); !ok {
		t.Error("future-version header with extension rejected")
	}
}

// FuzzParseTraceparent: the header arrives from anyone. Parsing never
// panics; a value it accepts yields non-zero IDs that are the value's own
// hex fields; and what FormatTraceparent renders from them is accepted
// back as the same IDs.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	f.Add(futureTraceparent)
	for _, v := range malformedTraceparents {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tid, sid, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("%q accepted with a zero ID (%s, %s)", v, tid, sid)
		}
		if tid.String() != v[3:35] || sid.String() != v[36:52] {
			t.Fatalf("%q parsed to (%s, %s), not its own fields", v, tid, sid)
		}
		out := FormatTraceparent(tid, sid)
		if tid2, sid2, ok := ParseTraceparent(out); !ok || tid2 != tid || sid2 != sid {
			t.Fatalf("FormatTraceparent gave %q, which parses to (%s, %s, %v)", out, tid2, sid2, ok)
		}
	})
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	// Sample rate 0: a remote continuation must still be live because
	// the upstream head decision wins.
	tr := testTracer(t, Options{Service: "shard-1", SampleRate: 0, Seed: 9})
	tid, parent, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("setup parse failed")
	}
	ctx, s := tr.StartRemote(context.Background(), "rpc.server browse", tid, parent)
	if s == nil {
		t.Fatal("remote continuation not sampled")
	}
	_, child := StartChild(ctx, "journal.append")
	child.Finish()
	s.Finish()
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID != tid {
			t.Errorf("span %q trace = %s, want %s", sp.Name, sp.TraceID, tid)
		}
		if sp.Service != "shard-1" {
			t.Errorf("span %q service = %q", sp.Name, sp.Service)
		}
	}
}

func TestStartServerPrefersInboundHeader(t *testing.T) {
	tr := testTracer(t, Options{SampleRate: 0, Seed: 11})
	r, _ := http.NewRequest(http.MethodGet, "/x", nil)
	r.Header.Set(Header, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	r2, s := tr.StartServer(r, "gateway")
	if s == nil {
		t.Fatal("inbound sampled traceparent ignored")
	}
	tid, _ := s.IDs()
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace = %s", tid)
	}
	if FromContext(r2.Context()) != s {
		t.Fatal("request context does not carry the span")
	}
	s.Finish()

	// Malformed header + rate 0: unsampled, request returned unchanged.
	r.Header.Set(Header, "garbage")
	r3, s2 := tr.StartServer(r, "gateway")
	if s2 != nil {
		t.Fatal("garbage header produced a span at rate 0")
	}
	if r3 != r {
		t.Fatal("unsampled StartServer rebuilt the request")
	}
}

func TestWireAndGrouping(t *testing.T) {
	tr := testTracer(t, Options{Service: "a", SampleRate: 1, Seed: 13})
	ctx, root := tr.StartRoot(context.Background(), "r1")
	_, c := StartChild(ctx, "c1")
	c.Annotate("shard", "0")
	c.Finish()
	root.Finish()
	_, other := tr.StartRoot(context.Background(), "r2")
	other.Finish()

	wires := tr.WireSnapshot()
	if len(wires) != 3 {
		t.Fatalf("wire snapshot has %d spans", len(wires))
	}
	traces := GroupTraces(wires)
	if len(traces) != 2 {
		t.Fatalf("grouped into %d traces, want 2", len(traces))
	}
	var t1 *TraceWire
	for i := range traces {
		rootTID, _ := root.IDs()
		if traces[i].TraceID == rootTID.String() {
			t1 = &traces[i]
		}
	}
	if t1 == nil || len(t1.Spans) != 2 {
		t.Fatalf("root trace missing or wrong size: %+v", traces)
	}
	if t1.Spans[0].Name != "r1" {
		t.Errorf("trace spans not start-ordered: %q first", t1.Spans[0].Name)
	}
	if t1.Spans[1].Parent != t1.Spans[0].SpanID {
		t.Error("wire parent link broken")
	}
	if t1.Spans[1].Attrs["shard"] != "0" {
		t.Error("wire attrs lost")
	}
	// Wire form must be valid JSON with stable field names.
	raw, err := json.Marshal(t1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace_id"`, `"span_id"`, `"parent_id"`, `"start_unix_nano"`, `"duration_nano"`} {
		if !contains(string(raw), want) {
			t.Errorf("wire JSON missing %s: %s", want, raw)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentSpans exercises the ring and span mutation under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := testTracer(t, Options{SampleRate: 1, RingSize: 64, Seed: 17})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRoot(context.Background(), "root")
				_, c := StartChild(ctx, "child")
				c.Annotate("g", "x")
				c.Event("e")
				c.Finish()
				root.Finish()
				if i%10 == 0 {
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("ring holds %d, want full 64", got)
	}
}

// TestAnnotateAfterFinishDropped pins that a span is immutable once
// published (readers may hold the record).
func TestAnnotateAfterFinishDropped(t *testing.T) {
	tr := testTracer(t, Options{SampleRate: 1, Seed: 19})
	_, s := tr.StartRoot(context.Background(), "r")
	s.Finish()
	s.Annotate("late", "x")
	s.Event("late")
	s.SetError(fmt.Errorf("late"))
	s.Finish() // idempotent
	got := tr.Snapshot()
	if len(got) != 1 {
		t.Fatalf("%d spans, want 1", len(got))
	}
	if len(got[0].Attrs) != 0 || len(got[0].Events) != 0 || got[0].Error != "" {
		t.Errorf("post-finish mutation leaked: %+v", got[0])
	}
}
