package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// TestRequestMetrics scripts a request mix against an isolated registry and
// asserts the middleware counted each route/status pair exactly.
func TestRequestMetrics(t *testing.T) {
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	p := platform.New(platform.Config{Market: &market, Seed: 1})
	u := profile.New("u0")
	u.SetCountry("US")
	u.AgeYrs = 30
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServerWithRegistry(p, nil, reg))
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// The mix: 3 successful registrations, 1 conflict on a duplicate, 2
	// successful browses, 1 browse for an unknown user (404), 2 feed reads.
	for i := 0; i < 3; i++ {
		if code := post("/api/v1/advertisers", fmt.Sprintf(`{"name":"adv%d"}`, i)); code != http.StatusCreated {
			t.Fatalf("register adv%d = %d", i, code)
		}
	}
	if code := post("/api/v1/advertisers", `{"name":"adv0"}`); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := post("/api/v1/users/u0/browse", `{}`); code != http.StatusOK {
			t.Fatalf("browse = %d", code)
		}
	}
	if code := post("/api/v1/users/nobody/browse", `{}`); code != http.StatusNotFound {
		t.Fatalf("browse unknown = %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := get("/api/v1/users/u0/feed"); code != http.StatusOK {
			t.Fatalf("feed = %d", code)
		}
	}

	requests := reg.CounterVec("http_requests_total",
		"HTTP requests served, by route pattern and status class.", "route", "status")
	for _, tc := range []struct {
		route, status string
		want          uint64
	}{
		{"POST /api/v1/advertisers", "2xx", 3},
		{"POST /api/v1/advertisers", "4xx", 1},
		{"POST /api/v1/users/{id}/browse", "2xx", 2},
		{"POST /api/v1/users/{id}/browse", "4xx", 1},
		{"GET /api/v1/users/{id}/feed", "2xx", 2},
		{"GET /api/v1/users/{id}/feed", "5xx", 0},
	} {
		if got := requests.With(tc.route, tc.status).Value(); got != tc.want {
			t.Errorf("http_requests_total{route=%q,status=%q} = %d, want %d",
				tc.route, tc.status, got, tc.want)
		}
	}

	// Latency was observed once per request on the route's histogram.
	latency := reg.HistogramVec("http_request_seconds",
		"HTTP request latency by route pattern, handler time inclusive of backend work.", "route")
	if snap := latency.With("POST /api/v1/advertisers").Snapshot(); snap.Count != 4 {
		t.Errorf("advertisers latency count = %d, want 4", snap.Count)
	}
	if snap := latency.With("GET /api/v1/users/{id}/feed").Snapshot(); snap.Count != 2 {
		t.Errorf("feed latency count = %d, want 2", snap.Count)
	}

	// Nothing in flight once every response has returned.
	if v := reg.Gauge("http_inflight_requests", "HTTP requests currently being handled.").Value(); v != 0 {
		t.Errorf("http_inflight_requests = %v, want 0", v)
	}

	// /metrics serves the same registry as well-formed exposition text and
	// is itself uncounted: no http_requests_total child mentions it.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Errorf("/metrics not well-formed: %v", err)
	}
	if !strings.Contains(text, `http_requests_total{route="POST /api/v1/advertisers",status="2xx"} 3`) {
		t.Errorf("/metrics missing expected sample:\n%s", text)
	}
	if strings.Contains(text, `route="GET /metrics"`) {
		t.Error("/metrics counted itself")
	}
}

func TestStatusClassIndex(t *testing.T) {
	for code, want := range map[int]int{200: 2, 201: 2, 404: 4, 500: 5, 99: 0, 600: 0, 0: 0} {
		if got := statusClassIndex(code); got != want {
			t.Errorf("statusClassIndex(%d) = %d, want %d", code, got, want)
		}
	}
}
