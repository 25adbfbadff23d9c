package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/gateway"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// do sends one request to h and returns the recorded response.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	r.Header.Set("X-API-Key", unavailableTestKey)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

const unavailableTestKey = "unavailable-test-key-0123456789"

// userRoutes are the two user routes whose shard call reports failure
// through an error result: the browse and the feed read.
var userRoutes = []struct{ method, route string }{{"POST", "browse"}, {"GET", "feed"}}

// TestUnavailableShardAnswers503 fronts a cluster with a down shard by the
// public API and the gateway: every route that needs the shard answers 503
// with Retry-After (not the route's "unknown user" 404 or "bad spec" 400),
// the 5xx request counter sees it, the gateway's AIMD controller — whose
// error signal is status >= 500 — shrinks its budget, refusals keep their
// codes, and the same requests are served once the shard is back.
func TestUnavailableShardAnswers503(t *testing.T) {
	c, flakies, ownedBy := newFlakyCluster(t)
	reg := obs.NewRegistry()
	api := httpapi.NewServerWithRegistry(c, nil, reg)
	keys, err := gateway.ParseKeyFile([]byte(`{"tenants":[{"name":"t","key":"`+unavailableTestKey+`"}]}`), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(api, gateway.Config{Keys: keys, Inflight: 64, SLO: time.Second, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	dead, live := ownedBy[0], ownedBy[1]
	requests := []struct{ method, path, body string }{
		{"POST", fmt.Sprintf("/api/v1/users/%s/browse?slots=3", dead), ""},
		{"POST", fmt.Sprintf("/api/v1/users/%s/likes", dead), `{"page_id":"page-x"}`},
		{"GET", fmt.Sprintf("/api/v1/users/%s/adpreferences", dead), ""},
		{"GET", fmt.Sprintf("/api/v1/users/%s/feed", dead), ""},
		{"POST", "/api/v1/advertisers/acme/reach", `{"spec":{"expr":"age(18, 65)"}}`},
		{"POST", "/api/v1/advertisers/acme/pixels", ""},
	}
	for _, rq := range requests {
		if w := do(gw, rq.method, rq.path, rq.body); w.Code/100 != 2 {
			t.Fatalf("healthy cluster: %s %s = %d %s", rq.method, rq.path, w.Code, w.Body)
		}
	}

	flakies[0].healthy = false
	fiveXX := reg.CounterVec("http_requests_total", "", "route", "status").With("POST /api/v1/users/{id}/browse", "5xx")
	before := fiveXX.Value()
	for _, rq := range requests {
		w := do(gw, rq.method, rq.path, rq.body)
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
			t.Fatalf("shard down: %s %s = %d (Retry-After %q) %s, want 503 with Retry-After",
				rq.method, rq.path, w.Code, w.Header().Get("Retry-After"), w.Body)
		}
	}
	if got := fiveXX.Value() - before; got != 1 {
		t.Fatalf("http_requests_total{browse,5xx} advanced by %d, want 1", got)
	}
	// What does not need the dead shard is untouched, and a refusal is
	// still the route's own code.
	if w := do(gw, "POST", fmt.Sprintf("/api/v1/users/%s/browse", live), ""); w.Code != http.StatusOK {
		t.Fatalf("browse on a healthy shard = %d %s", w.Code, w.Body)
	}
	var stranger profile.UserID
	for i := 0; stranger == ""; i++ {
		if uid := profile.UserID(fmt.Sprintf("nobody-%d", i)); c.Owner(uid) != 0 {
			stranger = uid
		}
	}
	for _, rq := range userRoutes {
		if w := do(gw, rq.method, fmt.Sprintf("/api/v1/users/%s/%s", stranger, rq.route), ""); w.Code != http.StatusNotFound {
			t.Fatalf("%s of an unknown user on a healthy shard = %d %s, want 404", rq.route, w.Code, w.Body)
		}
	}

	// The controller ticks every 100 ms; keep the 503s coming until one
	// window has seen them.
	deadline := time.Now().Add(10 * time.Second)
	for gw.InflightBudget() >= 64 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway_aimd_budget still %d after a run of backend 503s", gw.InflightBudget())
		}
		do(gw, requests[0].method, requests[0].path, requests[0].body)
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Gauge("gateway_aimd_budget", "").Value(); got >= 64 {
		t.Fatalf("gateway_aimd_budget gauge = %v, want it below the 64 ceiling", got)
	}

	flakies[0].healthy = true
	for _, rq := range requests {
		if w := do(gw, rq.method, rq.path, rq.body); w.Code/100 != 2 {
			t.Fatalf("after recovery: %s %s = %d %s", rq.method, rq.path, w.Code, w.Body)
		}
	}
}

// TestUnreachablePeerAnswers503 is the same contract for the rpc transport
// classes: a RemoteShard whose peer is gone fails with rpc.ErrUnavailable,
// then rpc.ErrCircuitOpen, inside a CallError — all of them a 503.
func TestUnreachablePeerAnswers503(t *testing.T) {
	p := platform.New(platform.Config{Seed: 1})
	var shardCalls atomic.Int64
	shard := rpc.NewServer(p, "", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardCalls.Add(1)
		shard.ServeHTTP(w, r)
	}))
	rs := cluster.NewRemoteShard(rpc.NewClient(srv.URL, rpc.Options{MaxRetries: -1, FailureThreshold: 3}))
	defer rs.Close()
	c, err := cluster.New([]cluster.Shard{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddUser(profile.New("u1")); err != nil {
		t.Fatal(err)
	}
	api := httpapi.NewServerWithRegistry(c, nil, obs.NewRegistry())
	if w := do(api, "POST", "/api/v1/users/u1/browse", ""); w.Code != http.StatusOK {
		t.Fatalf("browse with the peer up = %d %s", w.Code, w.Body)
	}
	before := shardCalls.Load()
	if w := do(api, "GET", "/api/v1/users/u1/feed", ""); w.Code != http.StatusOK {
		t.Fatalf("feed with the peer up = %d %s", w.Code, w.Body)
	}
	if n := shardCalls.Load() - before; n != 1 {
		t.Fatalf("one feed request made %d shard calls, want 1", n)
	}
	if w := do(api, "GET", "/api/v1/users/nobody/feed", ""); w.Code != http.StatusNotFound {
		t.Fatalf("feed of an unknown user with the peer up = %d %s, want 404", w.Code, w.Body)
	}
	srv.Close()
	for i := 0; i < 6; i++ { // past the breaker threshold
		for _, rq := range userRoutes {
			w := do(api, rq.method, "/api/v1/users/u1/"+rq.route, "")
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
				t.Fatalf("%s %d with the peer gone = %d (Retry-After %q) %s, want 503 with Retry-After",
					rq.route, i, w.Code, w.Header().Get("Retry-After"), w.Body)
			}
		}
	}
}

// TestUnresolvedStaleRingAnswers503: a shard that refuses a call as
// stale-ring says "not served by me under your ring", not "no such user".
// When the router cannot resolve the refusal — it has no membership
// source, the source fails, or the refreshed ring routes to a shard that
// refuses again — the public API answers 503 with Retry-After, never the
// route's 404.
func TestUnresolvedStaleRingAnswers503(t *testing.T) {
	cases := []struct {
		name string
		src  func(inner cluster.Shard) cluster.MembershipSource
	}{
		{"no membership source", nil},
		{"source fails", func(cluster.Shard) cluster.MembershipSource {
			return &fakeSource{err: errors.New("no seed answered")}
		}},
		{"refreshed ring refuses again", func(inner cluster.Shard) cluster.MembershipSource {
			next := cluster.NewReplicaSet(&staleOnceShard{Shard: inner})
			return &fakeSource{m: cluster.Membership{Version: 2, Shards: []*cluster.ReplicaSet{next}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := platform.New(platform.Config{Seed: 3})
			c, err := cluster.New([]cluster.Shard{&staleOnceShard{Shard: inner}}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AddUser(profile.New("stale-user")); err != nil {
				t.Fatal(err)
			}
			if tc.src != nil {
				c.SetMembershipSource(tc.src(inner))
			}
			api := httpapi.NewServerWithRegistry(c, nil, obs.NewRegistry())
			w := do(api, "POST", "/api/v1/users/stale-user/browse?slots=2", "")
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
				t.Fatalf("unresolved stale-ring refusal = %d (Retry-After %q) %s, want 503 with Retry-After",
					w.Code, w.Header().Get("Retry-After"), w.Body)
			}
		})
	}
}

// TestStickyJournalReportsUnhealthy: once a journal write or fsync fails,
// the journal refuses every later write, and the shard must say so where
// health is read — in process, the journaled member reports itself
// unhealthy; on the wire, the node's health endpoint answers 503, so a
// probe fails and opens the breaker. Either way a failover supervisor's
// probe sees the slot down, and the cluster refuses the shard's users'
// writes with the typed ErrShardUnavailable, not the raw journal error.
func TestStickyJournalReportsUnhealthy(t *testing.T) {
	forms := map[string]func(t *testing.T, jp *platform.Journaled) cluster.Shard{
		"in-process": func(_ *testing.T, jp *platform.Journaled) cluster.Shard { return jp },
		"networked": func(t *testing.T, jp *platform.Journaled) cluster.Shard {
			_, url := serveNode(t, jp, "")
			return cluster.NewRemoteShard(rpc.NewClient(url, rpc.Options{FailureThreshold: 1}))
		},
	}
	for name, form := range forms {
		t.Run(name, func(t *testing.T) {
			inj := faults.NewInjector(1, nil)
			ffs := faults.NewFaultFS(faults.OS{}, inj, faults.DiskConfig{SyncError: 1}, "")
			ffs.SkipSync = true
			jp, err := platform.OpenJournaled(t.TempDir(), journal.Options{FS: ffs}, func() (*platform.Platform, error) {
				return platform.New(platform.Config{Seed: 113}), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New([]cluster.Shard{form(t, jp)}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inj.Arm(true)
			if err := c.AddUser(profile.New("user-a")); err == nil || jp.JournalFailed() == nil {
				t.Fatalf("AddUser on a failing disk: %v; want the journal failed (it is %v)", err, jp.JournalFailed())
			}
			inj.Arm(false)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := c.ProbeSlotOwner(ctx, 0); err == nil {
				t.Error("probe of a shard whose journal failed succeeded")
			}
			if c.ReplicaSets()[0].Healthy() {
				t.Error("slot of a shard whose journal failed reports healthy")
			}
			if err := c.AddUser(profile.New("user-b")); !errors.Is(err, cluster.ErrShardUnavailable) {
				t.Errorf("write to a shard whose journal failed: %v, want ErrShardUnavailable", err)
			}
		})
	}
}
