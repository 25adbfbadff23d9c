package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/workload"
)

// testTenantKey is the API key bootObservedStack's gateway accepts.
const testTenantKey = "observed-tenant-key-01"

// bootObservedStack assembles the full observed daemon stack — a 4-shard
// journaled backend behind the HTTP API, fronted by the edge gateway,
// everything registered into obs.Default exactly as a real adplatformd
// run with -gateway would — and returns the test server plus the backend.
func bootObservedStack(t *testing.T) (*httptest.Server, *cluster.Cluster) {
	t.Helper()
	logger := log.New(io.Discard, "", 0)
	keys := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(keys, []byte(`{"tenants": [{"name": "observed", "key": "`+testTenantKey+`"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	opts := parseForTest(t, "-users", "200", "-shards", "4", "-journal", t.TempDir(),
		"-gateway", "-keys", keys)
	n, err := boot(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	backend, compactor := n.backend.(*cluster.Cluster), n.compactor
	t.Cleanup(func() { backend.Close() })
	handler := httpapi.NewServer(backend, nil)
	if compactor != nil {
		handler.SetCompactor(compactor)
	}
	edge, err := buildGateway(opts, nil, handler, logger)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edge.Close() })
	srv := httptest.NewServer(edge)
	t.Cleanup(srv.Close)
	return srv, backend
}

// TestMetricsEndToEnd is the acceptance check from the issue: run a 4-shard
// journaled daemon under the workload driver, then scrape GET /metrics and
// assert the text is well-formed Prometheus exposition containing per-shard
// op counters, quantile-derivable HTTP latency buckets, and journal fsync
// metrics.
func TestMetricsEndToEnd(t *testing.T) {
	srv, backend := bootObservedStack(t)

	// Server-side load through the HTTP API. Advertiser traffic crosses
	// the edge gateway, so it presents the tenant API key.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/advertisers",
		strings.NewReader(`{"name":"tp"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", testTenantKey)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register = %d", resp.StatusCode)
		}
	}
	users := backend.Users()
	for i := 0; i < 40; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/api/v1/users/%s/browse", srv.URL, users[i*len(users)/40]),
			"application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// ...and driver-side load straight against the backend, which is what
	// populates the journal append/fsync and workload families.
	st := workload.Drive(backend, workload.DriverConfig{
		Goroutines:      4,
		OpsPerGoroutine: 100,
		Users:           users,
		Seed:            7,
	})
	if st.Errors != 0 {
		t.Fatalf("driver errors: %d", st.Errors)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	text := string(body)
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("/metrics not well-formed: %v", err)
	}

	// Every shard served user ops; all four children must be present.
	for shard := 0; shard < 4; shard++ {
		if !strings.Contains(text, fmt.Sprintf(`cluster_shard_user_ops_total{shard="%d"}`, shard)) {
			t.Errorf("/metrics missing cluster_shard_user_ops_total for shard %d", shard)
		}
	}
	// Quantile-derivable request latency: cumulative buckets ending at +Inf.
	if !strings.Contains(text, `http_request_seconds_bucket{route="POST /api/v1/users/{id}/browse",le="+Inf"}`) {
		t.Error("/metrics missing http_request_seconds buckets for the browse route")
	}
	// The edge gateway's families are live: admitted counters per class
	// (the register crossed as mutation, the browses as user), the token
	// gauges per tenant, and the usage ledger journaling under its own
	// shard label.
	for _, want := range []string{
		`gateway_admitted_total{class="user"}`,
		`gateway_admitted_total{class="mutation"}`,
		`gateway_request_seconds_bucket{class="user",le="+Inf"}`,
		`gateway_tokens{tenant="observed",class="mutation"}`,
		`gateway_inflight `,
		`journal_appends_total{shard="usage"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing gateway series %q", want)
		}
	}
	for _, want := range []string{
		"journal_fsync_seconds_count{", "journal_appends_total{",
		"startup_recovery_seconds{", "delivery_impressions_total ",
		"workload_achieved_qps ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestOperationsDocCatalogsAllMetrics enforces the docs contract: every
// metric family registered anywhere in the daemon must be named in
// docs/OPERATIONS.md. A new metric without documentation fails here.
func TestOperationsDocCatalogsAllMetrics(t *testing.T) {
	srv, _ := bootObservedStack(t) // registers every family into obs.Default
	srv.Close()

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading operations doc: %v", err)
	}
	var text strings.Builder
	if err := obs.Default.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	fams := 0
	for _, line := range strings.Split(text.String(), "\n") {
		typ, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		fams++
		if name := strings.Fields(typ)[0]; !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not catalog metric family %q (%s)", name, typ)
		}
	}
	if fams == 0 {
		t.Fatal("no families registered; the stack boot is broken")
	}
}

// TestDebugMux pins the private listener surface: pprof index and /metrics
// respond, and nothing is registered on the default mux.
func TestDebugMux(t *testing.T) {
	srv := httptest.NewServer(debugMux())
	defer srv.Close()
	for path, wantType := range map[string]string{
		"/debug/pprof/": "text/html",
		"/metrics":      "text/plain",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Errorf("GET %s Content-Type = %q, want prefix %q", path, ct, wantType)
		}
	}
}
