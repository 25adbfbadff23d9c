package gateway

import (
	"net/http"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// highRateGateway builds a gateway whose alpha tenant never rate-limits,
// so the admit path can run sustained.
func highRateGateway(tb testing.TB) *Gateway {
	tb.Helper()
	raw := `{
	  "tenants": [{"name": "alpha", "key": "` + testKeyA + `",
	    "limits": {"user":     {"rps": 100000000, "burst": 200000000},
	               "mutation": {"rps": 100000000, "burst": 200000000},
	               "report":   {"rps": 100000000, "burst": 200000000}}}]
	}`
	ks, err := ParseKeyFile([]byte(raw), time.Now())
	if err != nil {
		tb.Fatalf("ParseKeyFile: %v", err)
	}
	g, err := New(http.NotFoundHandler(), Config{Keys: ks, Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() { g.Close() })
	return g
}

// TestDecideZeroAlloc pins the admission hot path — key resolution plus
// the full admit decision and release — at zero heap allocations per
// request. A regression here shows up as GC pressure on every request at
// the edge, so it fails the build rather than waiting for a profile.
func TestDecideZeroAlloc(t *testing.T) {
	g := highRateGateway(t)
	tenant := g.keys.Load().Resolve(testKeyA)
	if tenant == nil {
		t.Fatalf("resolve failed")
	}

	allocs := testing.AllocsPerRun(10000, func() {
		t := g.keys.Load().Resolve(testKeyA)
		d := g.Decide(t, ClassReport)
		if d.Verdict == VerdictAdmitted {
			g.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("resolve+decide+release allocates %v per request, want 0", allocs)
	}

	// The refusal paths are hot under overload — they must not allocate
	// either. Drain a burst-4 bucket, then measure limited decisions.
	ks := mustKeySet(t, testKeyFile())
	reg := obs.NewRegistry()
	g2, err := New(http.NotFoundHandler(), Config{Keys: ks, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer g2.Close()
	beta := ks.Resolve(testKeyB)
	for i := 0; i < 10; i++ {
		if d := g2.Decide(beta, ClassReport); d.Verdict == VerdictAdmitted {
			g2.Release()
		}
	}
	allocs = testing.AllocsPerRun(10000, func() {
		if d := g2.Decide(beta, ClassReport); d.Verdict == VerdictAdmitted {
			g2.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("limited decision allocates %v per request, want 0", allocs)
	}
}

func BenchmarkResolveKey(b *testing.B) {
	g := highRateGateway(b)
	ks := g.keys.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ks.Resolve(testKeyA) == nil {
			b.Fatalf("resolve failed")
		}
	}
}

func BenchmarkDecideAdmit(b *testing.B) {
	g := highRateGateway(b)
	tenant := g.keys.Load().Resolve(testKeyA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := g.Decide(tenant, ClassUser); d.Verdict == VerdictAdmitted {
			g.Release()
		}
	}
}

func BenchmarkDecideLimited(b *testing.B) {
	ks := mustKeySetBench(b)
	g, err := New(http.NotFoundHandler(), Config{Keys: ks, Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer g.Close()
	beta := ks.Resolve(testKeyB)
	for i := 0; i < 10; i++ {
		if d := g.Decide(beta, ClassReport); d.Verdict == VerdictAdmitted {
			g.Release()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := g.Decide(beta, ClassReport); d.Verdict == VerdictAdmitted {
			g.Release()
		}
	}
}

func mustKeySetBench(b *testing.B) *KeySet {
	b.Helper()
	ks, err := ParseKeyFile([]byte(testKeyFile()), time.Now())
	if err != nil {
		b.Fatalf("ParseKeyFile: %v", err)
	}
	return ks
}
