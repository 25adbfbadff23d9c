package trace

import (
	"context"
	"net/http"
	"testing"

	"github.com/treads-project/treads/internal/obs"
)

// benchSpanPair is the per-request tracing tax: a root decision, one
// annotation, one child, both finished.
func benchSpanPair(b *testing.B, rate float64) {
	tr := NewTracer(Options{Service: "bench", SampleRate: rate, SlowThreshold: -1, Seed: 1, Registry: obs.NewRegistry()})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, root := tr.StartRoot(ctx, "bench.root")
		root.Annotate("k", "v")
		_, child := StartChild(c, "bench.child")
		child.Finish()
		root.Finish()
	}
}

// BenchmarkSpanSampled prices what turning -trace-sample up costs: every
// request records two spans into the ring.
func BenchmarkSpanSampled(b *testing.B) { benchSpanPair(b, 1) }

// BenchmarkSpanUnsampled is the 99 % case at the default 1 % rate. Its
// allocation count is pinned at zero by TestSpanZeroAlloc; this is the
// time.
func BenchmarkSpanUnsampled(b *testing.B) { benchSpanPair(b, 0) }

// BenchmarkInjectExtract is the traceparent round trip the RPC hop adds
// to a sampled call: inject on the client, parse on the server.
func BenchmarkInjectExtract(b *testing.B) {
	tr := NewTracer(Options{Service: "bench", SampleRate: 1, Seed: 1, Registry: obs.NewRegistry()})
	_, sp := tr.StartRoot(context.Background(), "bench.inject")
	defer sp.Finish()
	h := make(http.Header, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Inject(sp, h)
		if _, _, ok := Extract(h); !ok {
			b.Fatal("traceparent did not round-trip")
		}
	}
}
