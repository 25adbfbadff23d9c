package gateway_test

// End-to-end gateway scenarios over the real HTTP stack: the overload
// drill the subsystem exists for (a greedy reporting tenant saturating
// the edge while user ad-serving holds its SLO with exact impression
// accounting), and the equivalence guarantee that the gateway is a pure
// edge — the platform state a workload produces is byte-identical with
// the gateway on or off.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/workload"
)

const (
	e2eReporterKey = "greedy-reporter-key-01"
	e2eKeyFile     = `{
	  "tenants": [
	    {"name": "reporter", "key": "` + e2eReporterKey + `",
	     "limits": {"report": {"rps": 5, "burst": 5}}}
	  ]
	}`
)

// bootPopulatedPlatform builds a platform with a generated population.
func bootPopulatedPlatform(t *testing.T, users int, seed uint64) *platform.Platform {
	t.Helper()
	p := platform.New(platform.Config{Seed: seed})
	cfg := workload.DefaultConfig()
	cfg.Users = users
	cfg.Seed = seed
	cfg.Catalog = p.Catalog()
	for _, u := range workload.Generate(cfg) {
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// bootGatewayStack wraps a populated platform's HTTP server in a gateway
// with its own registry and returns the test server, the gateway, and
// the platform.
func bootGatewayStack(t *testing.T, users int, seed uint64, keyFile string, inflight int, slo time.Duration) (*httptest.Server, *gateway.Gateway, *platform.Platform) {
	t.Helper()
	p := bootPopulatedPlatform(t, users, seed)
	reg := obs.NewRegistry()
	inner := httpapi.NewServerWithRegistry(p, nil, reg)
	ks, err := gateway.ParseKeyFile([]byte(keyFile), time.Now())
	if err != nil {
		t.Fatalf("ParseKeyFile: %v", err)
	}
	g, err := gateway.New(inner, gateway.Config{Keys: ks, Inflight: inflight, SLO: slo, Registry: reg})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	srv := httptest.NewServer(g)
	t.Cleanup(srv.Close)
	return srv, g, p
}

// TestOverloadProtectsUserSLO is the issue's acceptance scenario: a
// greedy reporting tenant offering at least 10x its admitted rate while
// users browse. The protected class must see zero refusals and hold its
// latency SLO, the greedy tenant must be mostly refused, and the acked
// impressions must reconcile exactly against a recount of every feed.
func TestOverloadProtectsUserSLO(t *testing.T) {
	srv, g, p := bootGatewayStack(t, 300, 11, e2eKeyFile, 64, 0)
	ctx := context.Background()

	// Setup traffic (mutation class) rides the reporter tenant's default
	// mutation limits.
	setup := httpapi.NewClient(srv.URL)
	setup.APIKey = e2eReporterKey
	if err := setup.RegisterAdvertiser(ctx, "greedco"); err != nil {
		t.Fatalf("register: %v", err)
	}
	campID, err := setup.CreateCampaign(ctx, "greedco", httpapi.CreateCampaignRequest{
		Spec:      httpapi.SpecWire{Expr: "age(18, 80)"},
		BidCapUSD: 10,
		Creative:  httpapi.CreativeWire{Headline: "h", Body: "b"},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	greedy := httpapi.NewClient(srv.URL)
	greedy.APIKey = e2eReporterKey
	userClient := httpapi.NewClient(srv.URL)
	target := httpapi.NewDriverTarget(userClient, ctx)
	users := p.Users()

	// Track what users were told: every successful browse's impression
	// count is an acknowledgment the platform must honor exactly.
	var acked atomic.Int64
	observe := func(r workload.OpResult) {
		if r.Op == workload.OpBrowse && r.Err == nil {
			acked.Add(int64(len(r.Impressions)))
		}
	}

	const greedyWorkers, greedyOps = 4, 150
	res := workload.DriveOverload([]workload.ClassLoad{
		workload.UserLoad("user", target, users, 4, 50, 3, 42, observe),
		workload.GreedyLoad("greedy-report", greedyWorkers, greedyOps, func() error {
			_, err := greedy.Report(ctx, "greedco", campID)
			return err
		}),
	})

	user := res["user"]
	if user.Errors != 0 {
		t.Fatalf("protected user class saw %d refusals out of %d ops", user.Errors, user.Done)
	}
	// The SLO: generous enough for shared CI hardware, tight enough that
	// a user class queued behind greedy reporting traffic would blow it.
	const userSLO = 750 * time.Millisecond
	if user.P99 > userSLO {
		t.Fatalf("user p99 = %v under greedy load, SLO %v", user.P99, userSLO)
	}

	// The greedy tenant offered far more than its 5 rps budget admits.
	g2 := res["greedy-report"]
	admitted := int64(g2.Done - g2.Errors)
	offered := int64(g2.Done)
	if admitted == 0 {
		t.Fatalf("greedy tenant fully starved: burst should admit a few of %d", offered)
	}
	if offered < 10*admitted {
		t.Fatalf("greedy offered %d vs admitted %d: load did not reach 10x overload", offered, admitted)
	}

	// The edge did the refusing, not the platform: the gateway's usage
	// report shows the reporter limited/shed, and zero user-class
	// refusals.
	usage := g.Meter().Report(g.Keys())
	rep := usage["reporter"]
	if int64(rep.Limited+rep.Shed) != int64(g2.Errors) {
		t.Fatalf("gateway refused %d (limited %d + shed %d) but greedy saw %d errors",
			rep.Limited+rep.Shed, rep.Limited, rep.Shed, g2.Errors)
	}
	if u := usage[gateway.UserTenantName]; u.Limited != 0 || u.Shed != 0 {
		t.Fatalf("user pseudo-tenant refused: %+v", u)
	}

	// Exact accounting: every impression acked to a user survives in that
	// user's feed, and nothing more was committed.
	var feedImps int64
	for _, uid := range users {
		feedImps += int64(len(p.Feed(uid)))
	}
	if feedImps != acked.Load() {
		t.Fatalf("feeds hold %d impressions but %d were acked to users", feedImps, acked.Load())
	}

	t.Logf("user p99=%v; greedy offered=%d admitted=%d refused=%d; acked=%d impressions",
		user.P99, offered, admitted, g2.Errors, acked.Load())
}

// TestOverloadWithAIMDHoldsUserSLO reruns the overload drill with the
// latency-adaptive controller replacing the fixed inflight budget. The
// protected class must still see zero refusals and hold its SLO — the
// controller may move the budget, but never in a way that starves the
// user class behind greedy reporting traffic — and the budget must end
// inside [1, Inflight] with exact impression accounting intact.
func TestOverloadWithAIMDHoldsUserSLO(t *testing.T) {
	const userSLO = 750 * time.Millisecond
	srv, g, p := bootGatewayStack(t, 300, 11, e2eKeyFile, 64, userSLO)
	ctx := context.Background()

	setup := httpapi.NewClient(srv.URL)
	setup.APIKey = e2eReporterKey
	if err := setup.RegisterAdvertiser(ctx, "greedco"); err != nil {
		t.Fatalf("register: %v", err)
	}
	campID, err := setup.CreateCampaign(ctx, "greedco", httpapi.CreateCampaignRequest{
		Spec:      httpapi.SpecWire{Expr: "age(18, 80)"},
		BidCapUSD: 10,
		Creative:  httpapi.CreativeWire{Headline: "h", Body: "b"},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}

	greedy := httpapi.NewClient(srv.URL)
	greedy.APIKey = e2eReporterKey
	userClient := httpapi.NewClient(srv.URL)
	target := httpapi.NewDriverTarget(userClient, ctx)
	users := p.Users()

	var acked atomic.Int64
	observe := func(r workload.OpResult) {
		if r.Op == workload.OpBrowse && r.Err == nil {
			acked.Add(int64(len(r.Impressions)))
		}
	}

	res := workload.DriveOverload([]workload.ClassLoad{
		workload.UserLoad("user", target, users, 4, 50, 3, 42, observe),
		workload.GreedyLoad("greedy-report", 4, 150, func() error {
			_, err := greedy.Report(ctx, "greedco", campID)
			return err
		}),
	})

	user := res["user"]
	if user.Errors != 0 {
		t.Fatalf("protected user class saw %d refusals out of %d ops", user.Errors, user.Done)
	}
	if user.P99 > userSLO {
		t.Fatalf("user p99 = %v with AIMD controller, SLO %v", user.P99, userSLO)
	}

	if b := g.InflightBudget(); b < 1 || b > 64 {
		t.Fatalf("AIMD budget %d outside [1, 64]", b)
	}

	var feedImps int64
	for _, uid := range users {
		feedImps += int64(len(p.Feed(uid)))
	}
	if feedImps != acked.Load() {
		t.Fatalf("feeds hold %d impressions but %d were acked to users", feedImps, acked.Load())
	}

	t.Logf("user p99=%v; final AIMD budget=%d; acked=%d impressions",
		user.P99, g.InflightBudget(), acked.Load())
}

// TestGatewayStateEquivalence drives the same deterministic workload
// through a gatewayed stack and a bare one and asserts the resulting
// platform snapshots are byte-identical: the gateway admits, meters, and
// observes, but never mutates.
func TestGatewayStateEquivalence(t *testing.T) {
	drive := func(t *testing.T, gatewayed bool) []byte {
		t.Helper()
		const seed = 17
		p := bootPopulatedPlatform(t, 120, seed)
		reg := obs.NewRegistry()
		var handler = func() *httptest.Server {
			inner := httpapi.NewServerWithRegistry(p, nil, reg)
			if !gatewayed {
				return httptest.NewServer(inner)
			}
			ks, err := gateway.ParseKeyFile([]byte(e2eKeyFile), time.Now())
			if err != nil {
				t.Fatalf("ParseKeyFile: %v", err)
			}
			g, err := gateway.New(inner, gateway.Config{Keys: ks, Registry: reg})
			if err != nil {
				t.Fatalf("gateway.New: %v", err)
			}
			t.Cleanup(func() { g.Close() })
			return httptest.NewServer(g)
		}()
		t.Cleanup(handler.Close)

		ctx := context.Background()
		c := httpapi.NewClient(handler.URL)
		c.APIKey = e2eReporterKey
		if err := c.RegisterAdvertiser(ctx, "eq"); err != nil {
			t.Fatalf("register: %v", err)
		}
		if _, err := c.CreateCampaign(ctx, "eq", httpapi.CreateCampaignRequest{
			Spec:      httpapi.SpecWire{Expr: "age(18, 80)"},
			BidCapUSD: 5,
			Creative:  httpapi.CreativeWire{Headline: "h", Body: "b"},
		}); err != nil {
			t.Fatalf("campaign: %v", err)
		}
		// One worker: the op sequence, and therefore the platform's RNG
		// consumption, is fully deterministic.
		st := workload.Drive(httpapi.NewDriverTarget(httpapi.NewClient(handler.URL), ctx), workload.DriverConfig{
			Goroutines:      1,
			OpsPerGoroutine: 150,
			Users:           p.Users(),
			Seed:            seed,
		})
		if st.Errors != 0 {
			t.Fatalf("driver errors: %d", st.Errors)
		}
		var buf bytes.Buffer
		if err := platform.WriteSnapshot(&buf, p.Snapshot(99)); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return buf.Bytes()
	}

	plain := drive(t, false)
	gated := drive(t, true)
	if !bytes.Equal(plain, gated) {
		t.Fatalf("platform state diverged: %d bytes without gateway, %d with", len(plain), len(gated))
	}
}
