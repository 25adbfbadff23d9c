package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

const testKeyA2 = "agency-alpha-key-0002"

// rotatedKeyFile is testKeyFile after an operator rotation: alpha's key
// replaced, beta revoked, gamma onboarded.
func rotatedKeyFile() string {
	return `{
	  "tenants": [
	    {"name": "alpha", "key": "` + testKeyA2 + `", "quota_bytes": 4096},
	    {"name": "gamma", "key": "agency-gamma-key-0003"}
	  ]
	}`
}

func TestKeyReloadRotatesTenantsInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(path, []byte(testKeyFile()), 0o600); err != nil {
		t.Fatal(err)
	}

	// The inner handler can be told to block, standing in for a request
	// that is mid-flight while the operator rotates keys under it.
	entered := make(chan struct{})
	release := make(chan struct{})
	block := false
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if block {
			close(entered)
			<-release
		}
		w.Write([]byte("ok\n"))
	})

	g, _ := newTestGateway(t, inner, func(cfg *Config) {
		cfg.KeysPath = path
	})

	// Seed some metered usage for alpha under the original key.
	if w := doReq(g, "POST", "/api/v1/advertisers", testKeyA); w.Code != http.StatusOK {
		t.Fatalf("pre-rotation request: status %d, want 200", w.Code)
	}
	oldUsage := g.keys.Load().Resolve(testKeyA).usage
	if oldUsage == nil {
		t.Fatal("alpha tenant has no usage counters")
	}

	// Park a request in the inner handler, then rotate underneath it.
	block = true
	inflightDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflightDone <- doReq(g, "POST", "/api/v1/advertisers", testKeyA)
	}()
	<-entered
	block = false

	if err := os.WriteFile(path, []byte(rotatedKeyFile()), 0o600); err != nil {
		t.Fatal(err)
	}
	w := doReq(g, "POST", "/admin/v1/keys/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d body %q", w.Code, w.Body.String())
	}
	var resp struct {
		Tenants int `json:"tenants"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Tenants != 2 {
		t.Fatalf("reload body = %q, want 2 tenants", w.Body.String())
	}

	// The in-flight request, admitted under the old set, completes.
	release <- struct{}{}
	if w := <-inflightDone; w.Code != http.StatusOK {
		t.Fatalf("in-flight request after rotation: status %d, want 200", w.Code)
	}

	// Old keys stop resolving: alpha's retired key and revoked beta both
	// bounce; the rotated and onboarded keys work.
	for _, key := range []string{testKeyA, testKeyB} {
		if w := doReq(g, "POST", "/api/v1/advertisers", key); w.Code != http.StatusUnauthorized {
			t.Fatalf("retired key %q: status %d, want 401", key, w.Code)
		}
	}
	for _, key := range []string{testKeyA2, "agency-gamma-key-0003"} {
		if w := doReq(g, "POST", "/api/v1/advertisers", key); w.Code != http.StatusOK {
			t.Fatalf("rotated key %q: status %d, want 200", key, w.Code)
		}
	}

	// Billing continuity: alpha's new tenant object meters into the same
	// counters it had before the rotation — including the request that
	// was in flight across it.
	alpha := g.keys.Load().Resolve(testKeyA2)
	if alpha.usage != oldUsage {
		t.Fatal("alpha usage counters were reset by the reload")
	}
	if got := oldUsage.requests[GroupMutation].Load(); got != 3 {
		t.Fatalf("alpha mutation count = %d, want 3 (pre, in-flight, post)", got)
	}
	if got := g.m.keyReloads.Value(); got != 1 {
		t.Fatalf("key reloads = %d, want 1", got)
	}
}

func TestKeyReloadRejectsBadFileAndKeepsServing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	if err := os.WriteFile(path, []byte(testKeyFile()), 0o600); err != nil {
		t.Fatal(err)
	}
	g, _ := newTestGateway(t, nil, func(cfg *Config) {
		cfg.KeysPath = path
	})

	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "x", "key": "short"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if w := doReq(g, "POST", "/admin/v1/keys/reload", ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("reload of invalid file: status %d, want 422", w.Code)
	}
	// The running set is untouched.
	if w := doReq(g, "POST", "/api/v1/advertisers", testKeyA); w.Code != http.StatusOK {
		t.Fatalf("original key after failed reload: status %d, want 200", w.Code)
	}
}

func TestKeyReloadWithoutPathIs404(t *testing.T) {
	g, _ := newTestGateway(t, nil, nil)
	if w := doReq(g, "POST", "/admin/v1/keys/reload", ""); w.Code != http.StatusNotFound {
		t.Fatalf("reload without -keys: status %d, want 404", w.Code)
	}
}
