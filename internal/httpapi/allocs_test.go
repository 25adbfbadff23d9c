//go:build !race

package httpapi

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/obs"
)

// TestServeAllocs pins the heap allocations one request makes through
// Server.ServeHTTP on the routes the benchmark's mixes drive, net of the
// httptest request and recorder, so the serving path cannot grow them. The
// bounds are the figures of the hand-written per-route handlers.
func TestServeAllocs(t *testing.T) {
	p := fuzzPlatform(t)
	srv := NewServerWithRegistry(p, nil, obs.NewRegistry())
	for _, c := range []struct {
		name, method, target, body string
		max                        float64
	}{
		{"browse", "POST", "/api/v1/users/u0/browse?slots=3", "", 14},
		{"like", "POST", "/api/v1/users/u0/likes", `{"page_id":"page-1"}`, 25},
		{"pixel", "GET", "/pixel/px-000001?uid=u0", "", 15},
		{"adpreferences", "GET", "/api/v1/users/u0/adpreferences", "", 12},
		{"report", "GET", "/api/v1/advertisers/adv/campaigns/camp-000001/report", "", 10},
		{"reach", "POST", "/api/v1/advertisers/adv/reach", `{"spec":{"expr":"attr(platform.music.jazz) AND age(18, 65)"}}`, 31},
	} {
		var code int
		serve := func(handle bool) func() {
			return func() {
				req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
				rec := httptest.NewRecorder()
				if handle {
					srv.ServeHTTP(rec, req)
					code = rec.Code
				}
			}
		}
		// Warm the route (the first browse grows the user's feed, the first
		// like records the page) before counting.
		serve(true)()
		if code >= 300 {
			t.Fatalf("%s: status %d", c.name, code)
		}
		got := testing.AllocsPerRun(200, serve(true)) - testing.AllocsPerRun(200, serve(false))
		got = math.Round(got)
		t.Logf("%s: %.0f allocs per request", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocs per request, want at most %.0f", c.name, got, c.max)
		}
	}
}
