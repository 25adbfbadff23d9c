package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/treads-project/treads/internal/platform"
)

// fakeClusterAdmin records calls and returns canned answers, so these
// tests pin the HTTP translation layer without a real cluster behind it.
type fakeClusterAdmin struct {
	addAddr     string
	addReplicas []string
	promoted    int
	forced      bool
	removeErr   error
	resumed     bool
	calls       int // AddShard and Promote calls that reached the admin
}

func (f *fakeClusterAdmin) Status() ClusterStatusResponse {
	return ClusterStatusResponse{
		Version: 3,
		Slots: []ClusterSlotStatus{
			{Slot: 0, Addr: "http://a:1", Replicas: []string{"http://a2:1"}, Healthy: true},
			{Slot: 1, Addr: "http://b:1", Healthy: false},
		},
		PendingRemovals: 1,
		LastReshard:     &ReshardReportWire{UsersMoved: 12, CutoverMS: 0.5, Version: 3},
	}
}

// AddShard joins any address but two: "refused" is an application refusal,
// "down" a node the fleet cannot reach.
func (f *fakeClusterAdmin) AddShard(addr string, replicas []string) (ReshardReportWire, error) {
	f.calls++
	f.addAddr, f.addReplicas = addr, replicas
	switch addr {
	case "refused":
		return ReshardReportWire{}, errors.New("joining node not healthy")
	case "down":
		return ReshardReportWire{}, fmt.Errorf("add shard: listing: shard 1: %w", Unavailable("rpc: peer unavailable"))
	}
	return ReshardReportWire{UsersMoved: 7, Version: 4}, nil
}

func (f *fakeClusterAdmin) RemoveShard() (ReshardReportWire, error) {
	if f.removeErr != nil {
		return ReshardReportWire{}, f.removeErr
	}
	return ReshardReportWire{UsersMoved: 7, Version: 5}, nil
}

func (f *fakeClusterAdmin) Promote(slot int, force bool) (PromoteResponse, error) {
	f.calls++
	if slot < 0 || slot > 1 {
		return PromoteResponse{}, errors.New("no such slot")
	}
	f.promoted = slot
	f.forced = force
	return PromoteResponse{Slot: slot, Member: 1, Addr: "http://a2:1", Version: 4}, nil
}

func (f *fakeClusterAdmin) ResumeReshard() error {
	f.resumed = true
	return nil
}

func adminDo(t *testing.T, method, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterEndpointsUnconfigured: without a ClusterAdmin every
// membership route exists but reports 404 — a single-process server
// exposes no dynamic-membership surface.
func TestClusterEndpointsUnconfigured(t *testing.T) {
	srv := httptest.NewServer(NewServer(platform.New(platform.Config{Seed: 1}), nil))
	t.Cleanup(srv.Close)
	cases := []struct{ method, path string }{
		{http.MethodGet, "/admin/v1/cluster"},
		{http.MethodPost, "/admin/v1/cluster/shards"},
		{http.MethodDelete, "/admin/v1/cluster/shards"},
		{http.MethodPost, "/admin/v1/cluster/promote"},
		{http.MethodPost, "/admin/v1/cluster/resume"},
	}
	for _, c := range cases {
		if resp := adminDo(t, c.method, srv.URL+c.path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s without admin: got %d, want 404", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestClusterEndpoints drives every membership endpoint against a fake
// admin: status round-trips, add/remove return reshard reports, promote
// maps adapter errors to 409, and resume reports success.
func TestClusterEndpoints(t *testing.T) {
	fake := &fakeClusterAdmin{}
	srv := NewServer(platform.New(platform.Config{Seed: 1}), nil)
	srv.SetClusterAdmin(fake)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp := adminDo(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: got %d", resp.StatusCode)
	}
	var st ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 3 || len(st.Slots) != 2 || st.PendingRemovals != 1 || st.LastReshard == nil {
		t.Fatalf("status mangled in transit: %+v", st)
	}
	if st.Slots[0].Replicas[0] != "http://a2:1" || st.Slots[1].Healthy {
		t.Fatalf("slot detail mangled: %+v", st.Slots)
	}

	resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/shards",
		AddShardRequest{Addr: "http://c:1", Replicas: []string{"http://c2:1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add shard: got %d", resp.StatusCode)
	}
	var rep ReshardReportWire
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 4 || fake.addAddr != "http://c:1" || len(fake.addReplicas) != 1 {
		t.Fatalf("add shard wiring: rep=%+v addr=%q replicas=%v", rep, fake.addAddr, fake.addReplicas)
	}

	if resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/shards", AddShardRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("add shard without addr: got %d, want 400", resp.StatusCode)
	}

	if resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote", PromoteRequest{Slot: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: got %d", resp.StatusCode)
	}
	if fake.promoted != 1 || fake.forced {
		t.Fatalf("promoted slot %d (forced=%v), want slot 1 unforced", fake.promoted, fake.forced)
	}
	if resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote", PromoteRequest{Slot: 0, Force: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("forced promote: got %d", resp.StatusCode)
	}
	if !fake.forced {
		t.Fatal("Force flag lost in transit")
	}
	if resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote", PromoteRequest{Slot: 9}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote bad slot: got %d, want 409", resp.StatusCode)
	}

	if resp = adminDo(t, http.MethodDelete, ts.URL+"/admin/v1/cluster/shards", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove shard: got %d", resp.StatusCode)
	}
	fake.removeErr = errors.New("cannot shrink below one shard")
	if resp = adminDo(t, http.MethodDelete, ts.URL+"/admin/v1/cluster/shards", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove shard at floor: got %d, want 409", resp.StatusCode)
	}

	// An error that says the fleet is unreachable is a 503 to retry, not a
	// refusal.
	fake.removeErr = fmt.Errorf("remove shard: shard 1: %w", Unavailable("cluster: shard unavailable"))
	if resp = adminDo(t, http.MethodDelete, ts.URL+"/admin/v1/cluster/shards", nil); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("remove shard over an unreachable fleet: got %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	if resp = adminDo(t, http.MethodPost, ts.URL+"/admin/v1/cluster/resume", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: got %d", resp.StatusCode)
	}
	if !fake.resumed {
		t.Fatal("resume never reached the admin")
	}
}

// TestClusterEndpointsRequireAdminToken: with authentication enabled the
// membership surface is gated on the admin account, exactly like
// compaction.
func TestClusterEndpointsRequireAdminToken(t *testing.T) {
	srv, auth := NewServerWithAuth(platform.New(platform.Config{Seed: 1}), nil)
	srv.SetClusterAdmin(&fakeClusterAdmin{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if resp := adminDo(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status without token: got %d, want 401", resp.StatusCode)
	}
	tok, err := auth.Issue("admin")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/admin/v1/cluster", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status with admin token: got %d, want 200", resp.StatusCode)
	}
}

// FuzzClusterAdminJSON sends arbitrary bytes as the body of the two admin
// routes that decode one: nothing panics, the answer is a success, a
// malformed-body 400, a refusal (409) or an unreachable fleet (503), a 400
// never reaches the admin, and a 200 reached it with exactly what the body
// says.
func FuzzClusterAdminJSON(f *testing.F) {
	for _, seed := range []string{
		`{"addr":"http://c:1","replicas":["http://c2:1"]}`, `{"addr":"refused"}`, `{"addr":"down"}`, `{}`,
		`{"slot":1}`, `{"slot":0,"force":true}`, `{"slot":9}`, `{"slot":-1,"force":true}`,
		`{"addr":7}`, `{"slot":"0"}`, `{"unknown":1}`, `{"addr":"a"} trailing`, `not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	fake := &fakeClusterAdmin{}
	srv := NewServer(platform.New(platform.Config{Seed: 1}), nil)
	srv.SetClusterAdmin(fake)
	// decode is the routes' own reading of a body.
	decode := func(body []byte, v any) bool {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v) == nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"/admin/v1/cluster/shards", "/admin/v1/cluster/promote"} {
			before := fake.calls
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				var add AddShardRequest
				var pro PromoteRequest
				if route == "/admin/v1/cluster/shards" {
					if !decode(body, &add) || add.Addr == "" || fake.addAddr != add.Addr || len(fake.addReplicas) != len(add.Replicas) {
						t.Fatalf("%s %q: 200, admin saw addr %q replicas %v", route, body, fake.addAddr, fake.addReplicas)
					}
				} else if !decode(body, &pro) || fake.promoted != pro.Slot || fake.forced != pro.Force {
					t.Fatalf("%s %q: 200, admin saw slot %d force %v", route, body, fake.promoted, fake.forced)
				}
			case http.StatusBadRequest:
				if fake.calls != before {
					t.Fatalf("%s %q: 400, yet the admin was called", route, body)
				}
			case http.StatusConflict:
			case http.StatusServiceUnavailable:
				if rec.Header().Get("Retry-After") == "" {
					t.Fatalf("%s %q: 503 without Retry-After", route, body)
				}
			default:
				t.Fatalf("%s %q: status %d: %s", route, body, rec.Code, rec.Body)
			}
		}
	})
}
