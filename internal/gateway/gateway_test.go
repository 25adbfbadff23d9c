package gateway

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// fakeClock is an injectable decision clock.
type fakeClock struct{ nanos atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.nanos.Store(time.Now().UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// newTestGateway builds a gateway over an echoing inner handler with its
// own registry and clock.
func newTestGateway(t *testing.T, inner http.Handler, mutate func(*Config)) (*Gateway, *fakeClock) {
	t.Helper()
	if inner == nil {
		inner = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write([]byte("ok\n"))
		})
	}
	clock := newFakeClock()
	cfg := Config{
		Keys:     mustKeySet(t, testKeyFile()),
		Registry: obs.NewRegistry(),
		Now:      clock.Now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(inner, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, clock
}

func doReq(g *Gateway, method, path, key string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, nil)
	if key != "" {
		r.Header.Set("X-API-Key", key)
	}
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	return w
}

func TestGatewayRejectsMissingAndUnknownKeys(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	for _, key := range []string{"", "not-a-real-key-at-all"} {
		w := doReq(g, "POST", "/api/v1/advertisers", key)
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, w.Code)
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error != ErrUnauthenticated.Error() {
			t.Fatalf("key %q: body %q", key, w.Body.String())
		}
	}
	if got := g.m.authFailures.Value(); got != 2 {
		t.Fatalf("auth failures = %d, want 2", got)
	}
}

func TestGatewayAcceptsBearerFallback(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	r := httptest.NewRequest("POST", "/api/v1/advertisers", nil)
	r.Header.Set("Authorization", "Bearer "+testKeyA)
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("bearer key: status %d, want 200", w.Code)
	}
}

func TestGatewayUserTrafficNeedsNoKey(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	w := doReq(g, "GET", "/api/v1/users/u1/feed", "")
	if w.Code != http.StatusOK {
		t.Fatalf("keyless feed: status %d, want 200", w.Code)
	}
	// And it metered under the users pseudo-tenant.
	if got := g.keys.Load().UserTenant().usage.requests[GroupFeed].Load(); got != 1 {
		t.Fatalf("users feed count = %d, want 1", got)
	}
	// The user transparency surfaces are keyless too, despite riding the
	// (sheddable) report class.
	w = doReq(g, "GET", "/api/v1/users/u1/adpreferences", "")
	if w.Code != http.StatusOK {
		t.Fatalf("keyless adpreferences: status %d, want 200", w.Code)
	}
	if got := g.keys.Load().UserTenant().usage.requests[GroupTransparency].Load(); got != 1 {
		t.Fatalf("users transparency count = %d, want 1", got)
	}
	if got := g.m.admitted[ClassReport].Value(); got != 1 {
		t.Fatalf("transparency admitted under class report = %d, want 1", got)
	}
}

func TestGatewayRateLimitMapsTo429WithRetryAfter(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	beta := g.keys.Load().Resolve(testKeyB) // report burst 4, rps 2
	var w *httptest.ResponseRecorder
	for i := 0; i < 5; i++ {
		w = doReq(g, "GET", "/api/v1/advertisers/x/campaigns/c1/report", testKeyB)
	}
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("5th report: status %d, want 429", w.Code)
	}
	// At 2 rps from empty, a full token is 500ms out; Retry-After rounds
	// up to 1s.
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want >= 1", w.Header().Get("Retry-After"))
	}
	var er errorResponse
	if json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Error != ErrRateLimited.Error() {
		t.Fatalf("429 body = %q", w.Body.String())
	}
	if got := beta.usage.limited.Load(); got != 1 {
		t.Fatalf("beta limited count = %d, want 1", got)
	}
	if got := g.m.limited[ClassReport].Value(); got != 1 {
		t.Fatalf("gateway_limited_total{report} = %d, want 1", got)
	}
}

func TestGatewayRateLimitRecoversWithTime(t *testing.T) {
	g, clock := newTestGateway(t, nil, nil)
	for i := 0; i < 5; i++ {
		doReq(g, "GET", "/api/v1/advertisers/x/campaigns/c1/report", testKeyB)
	}
	clock.Advance(time.Second) // 2 rps refills 2 tokens
	if w := doReq(g, "GET", "/api/v1/advertisers/x/campaigns/c1/report", testKeyB); w.Code != http.StatusOK {
		t.Fatalf("report after refill: status %d, want 200", w.Code)
	}
}

func TestGatewayQuotaExhaustionMapsTo429(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	alpha := g.keys.Load().Resolve(testKeyA) // quota 4096
	alpha.usage.bytesOut.Store(4096)
	w := doReq(g, "POST", "/api/v1/advertisers", testKeyA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", w.Code)
	}
	var er errorResponse
	if json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Error != ErrQuotaExhausted.Error() {
		t.Fatalf("quota body = %q", w.Body.String())
	}
	if got := alpha.usage.quotaDenied.Load(); got != 1 {
		t.Fatalf("quotaDenied = %d, want 1", got)
	}
	// beta is unmetered: no quota refusals no matter the spend.
	beta := g.keys.Load().Resolve(testKeyB)
	beta.usage.bytesOut.Store(1 << 40)
	if w := doReq(g, "POST", "/api/v1/advertisers", testKeyB); w.Code != http.StatusOK {
		t.Fatalf("unmetered tenant refused: status %d", w.Code)
	}
}

func TestGatewayShedsMapsTo503(t *testing.T) {
	// Inner handler parks until released, so inflight requests accumulate.
	release := make(chan struct{})
	var arrived sync.WaitGroup
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived.Done()
		<-release
		w.Write([]byte("done"))
	})
	g, _ := newTestGateway(t, inner, func(cfg *Config) { cfg.Inflight = 4 })
	// Report ceiling is 2 of 4. Park two report requests, then a third
	// must shed.
	arrived.Add(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := doReq(g, "GET", "/api/v1/advertisers/x/campaigns/c1/report", testKeyA); w.Code != http.StatusOK {
				t.Errorf("parked report finished with %d", w.Code)
			}
		}()
	}
	arrived.Wait()
	w := doReq(g, "GET", "/api/v1/advertisers/x/campaigns/c2/report", testKeyB)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("third report: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatalf("503 missing Retry-After")
	}
	var er errorResponse
	if json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Error != ErrShed.Error() {
		t.Fatalf("503 body = %q", w.Body.String())
	}
	// User traffic still has headroom while reports shed.
	arrived.Add(1)
	done := make(chan int, 1)
	go func() {
		w := doReq(g, "GET", "/api/v1/users/u1/feed", "")
		done <- w.Code
	}()
	arrived.Wait()
	close(release)
	wg.Wait()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("user feed under report saturation: status %d, want 200", code)
	}
	if got := g.shed.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after drain, want 0", got)
	}
}

func TestGatewayExemptSurfacesBypassLimits(t *testing.T) {
	var hits atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	g, _ := newTestGateway(t, inner, func(cfg *Config) { cfg.Inflight = 1 })
	// Saturate the whole budget with a parked user request... actually
	// simpler: empty every bucket by draining, then confirm exempt paths
	// still pass with no key and no 429.
	for _, path := range []string{"/metrics", "/debug/pprof/", "/admin/v1/compact", "/definitely/not/an/api"} {
		method := "GET"
		if path == "/admin/v1/compact" {
			method = "POST"
		}
		for i := 0; i < 50; i++ {
			w := doReq(g, method, path, "")
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s hit %d: status %d, want 200 pass-through", method, path, i, w.Code)
			}
		}
	}
	if got := hits.Load(); got != 200 {
		t.Fatalf("inner hits = %d, want 200", got)
	}
	// Exempt traffic is not metered against any tenant.
	for _, s := range g.meter.Report(g.keys.Load()) {
		if len(s.Requests) != 0 {
			t.Fatalf("exempt traffic metered: %+v", s)
		}
	}
}

func TestGatewayMetersBytes(t *testing.T) {
	payload := `{"hello":"world"}`
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("0123456789"))
	})
	g, _ := newTestGateway(t, inner, nil)
	r := httptest.NewRequest("POST", "/api/v1/advertisers", strings.NewReader(payload))
	r.Header.Set("X-API-Key", testKeyA)
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	alpha := g.keys.Load().Resolve(testKeyA)
	if got := alpha.usage.bytesIn.Load(); got != uint64(len(payload)) {
		t.Fatalf("bytesIn = %d, want %d", got, len(payload))
	}
	if got := alpha.usage.bytesOut.Load(); got != 10 {
		t.Fatalf("bytesOut = %d, want 10", got)
	}
	if got := alpha.usage.requests[GroupMutation].Load(); got != 1 {
		t.Fatalf("mutation count = %d, want 1", got)
	}
}

func TestGatewayUsageEndpoint(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	doReq(g, "POST", "/api/v1/advertisers", testKeyA)
	doReq(g, "GET", "/api/v1/users/u1/feed", "")
	w := doReq(g, "GET", "/admin/v1/usage", "")
	if w.Code != http.StatusOK {
		t.Fatalf("usage: status %d", w.Code)
	}
	var resp struct {
		Tenants map[string]usageSnapshot `json:"tenants"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("usage body: %v", err)
	}
	if resp.Tenants["alpha"].Requests["mutation"] != 1 {
		t.Fatalf("alpha usage = %+v", resp.Tenants["alpha"])
	}
	if resp.Tenants[UserTenantName].Requests["feed"] != 1 {
		t.Fatalf("users usage = %+v", resp.Tenants[UserTenantName])
	}
}

func TestGatewayAdminEndpointsHonorAuthorize(t *testing.T) {
	g, _ := newTestGateway(t, nil, func(cfg *Config) {
		cfg.Authorize = func(r *http.Request) bool {
			return r.Header.Get("Authorization") == "Bearer admin-secret"
		}
	})
	for _, path := range []string{"/admin/v1/usage", "/admin/v1/traffic"} {
		if w := doReq(g, "GET", path, ""); w.Code != http.StatusUnauthorized {
			t.Fatalf("%s without credentials: status %d, want 401", path, w.Code)
		}
	}
	r := httptest.NewRequest("GET", "/admin/v1/usage", nil)
	r.Header.Set("Authorization", "Bearer admin-secret")
	w := httptest.NewRecorder()
	g.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("authorized usage: status %d", w.Code)
	}
}

func TestGatewayTrafficStream(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/admin/v1/traffic")
	if err != nil {
		t.Fatalf("traffic GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("traffic Content-Type = %q", ct)
	}
	// Wait for the subscription to land before generating traffic.
	deadline := time.Now().Add(5 * time.Second)
	for int(g.hub.nsubs.Load()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One admitted user request and one 401 both stream as events.
	if _, err := http.Get(srv.URL + "/api/v1/users/u1/feed"); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if r, err := http.Post(srv.URL+"/api/v1/advertisers", "application/json", nil); err != nil {
		t.Fatalf("post: %v", err)
	} else {
		r.Body.Close()
	}

	sc := bufio.NewScanner(resp.Body)
	want := map[string]bool{"admitted": false, "unauthenticated": false}
	for i := 0; i < 2 && sc.Scan(); i++ {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		want[e.Decision] = true
	}
	if !want["admitted"] || !want["unauthenticated"] {
		t.Fatalf("streamed decisions = %+v", want)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		method, path string
		class        Class
		group        Group
		exempt       bool
	}{
		{"GET", "/metrics", 0, 0, true},
		{"POST", "/admin/v1/compact", 0, 0, true},
		{"GET", "/debug/pprof/heap", 0, 0, true},
		{"GET", "/nope", 0, 0, true},
		{"GET", "/pixel/abc123", ClassUser, GroupPixel, false},
		{"POST", "/api/v1/users/u1/browse", ClassUser, GroupBrowse, false},
		{"GET", "/api/v1/users/u1/feed", ClassUser, GroupFeed, false},
		{"POST", "/api/v1/users/u1/likes", ClassUser, GroupLike, false},
		{"GET", "/api/v1/users/u1/adpreferences", ClassReport, GroupTransparency, false},
		{"GET", "/api/v1/users/u1/advertisers", ClassReport, GroupTransparency, false},
		{"POST", "/api/v1/users/u1/explain", ClassReport, GroupTransparency, false},
		{"GET", "/api/v1/attributes", ClassReport, GroupAttributes, false},
		{"POST", "/api/v1/advertisers", ClassMutation, GroupMutation, false},
		{"POST", "/api/v1/advertisers/a/campaigns", ClassMutation, GroupMutation, false},
		{"POST", "/api/v1/advertisers/a/campaigns/c/pause", ClassMutation, GroupMutation, false},
		{"POST", "/api/v1/advertisers/a/audiences/pii", ClassMutation, GroupMutation, false},
		{"POST", "/api/v1/advertisers/a/pixels", ClassMutation, GroupMutation, false},
		{"GET", "/api/v1/advertisers/a/campaigns/c/report", ClassReport, GroupReport, false},
		{"POST", "/api/v1/advertisers/a/reach", ClassReport, GroupReach, false},
		// Unmatched paths under the public prefixes 404 in the inner
		// handler, so they take no tenant budget.
		{"GET", "/api/v1/users/u1/nope", 0, 0, true},
		{"POST", "/api/v1/advertisers/a/nope", 0, 0, true},
		{"POST", "/api/v1/users/u1/x/browse", 0, 0, true},
		{"GET", "/api/v1/users//feed", 0, 0, true},
		{"GET", "/api/v1/users/u1", 0, 0, true},
		{"POST", "/api/v1/advertisers/a/x/reach", 0, 0, true},
		{"POST", "/api/v1/advertisers/a/audiences/nope", 0, 0, true},
		{"POST", "/api/v1/advertisers/a/campaigns/c/nope", 0, 0, true},
		{"GET", "/api/v1/advertisers/a/campaigns//report", 0, 0, true},
	}
	for _, tc := range cases {
		class, group, exempt := classify(tc.method, tc.path)
		if class != tc.class || group != tc.group || exempt != tc.exempt {
			t.Errorf("classify(%s %s) = (%v, %v, %v), want (%v, %v, %v)",
				tc.method, tc.path, class, group, exempt, tc.class, tc.group, tc.exempt)
		}
	}
}

func TestClassifyDoesNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		classify("GET", "/api/v1/users/u1/feed")
		classify("POST", "/api/v1/advertisers/a/campaigns")
		classify("GET", "/pixel/abc")
	})
	if allocs != 0 {
		t.Fatalf("classify allocates %v per run, want 0", allocs)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(http.NotFoundHandler(), Config{}); err == nil {
		t.Fatalf("New without Keys succeeded")
	}
	if _, err := New(http.NotFoundHandler(), Config{
		Keys:     mustKeySet(t, testKeyFile()),
		Inflight: -1,
		Registry: obs.NewRegistry(),
	}); err == nil {
		t.Fatalf("New with negative Inflight succeeded")
	}
}
