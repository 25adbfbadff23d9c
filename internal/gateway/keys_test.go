package gateway

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const (
	testKeyA = "agency-alpha-key-0001"
	testKeyB = "agency-beta-key-00002"
)

func testKeyFile() string {
	return `{
	  "tenants": [
	    {"name": "alpha", "key": "` + testKeyA + `", "quota_bytes": 4096},
	    {"name": "beta", "key": "` + testKeyB + `",
	     "limits": {"report": {"rps": 2, "burst": 4}}}
	  ],
	  "default_limits": {"mutation": {"rps": 100, "burst": 200}}
	}`
}

func mustKeySet(t *testing.T, raw string) *KeySet {
	t.Helper()
	ks, err := ParseKeyFile([]byte(raw), time.Now())
	if err != nil {
		t.Fatalf("ParseKeyFile: %v", err)
	}
	return ks
}

func TestParseKeyFileResolvesTenants(t *testing.T) {
	ks := mustKeySet(t, testKeyFile())
	alpha := ks.Resolve(testKeyA)
	if alpha == nil || alpha.Name() != "alpha" {
		t.Fatalf("Resolve(alpha key) = %v", alpha)
	}
	if alpha.QuotaBytes() != 4096 {
		t.Fatalf("alpha quota = %d, want 4096", alpha.QuotaBytes())
	}
	beta := ks.Resolve(testKeyB)
	if beta == nil || beta.Name() != "beta" {
		t.Fatalf("Resolve(beta key) = %v", beta)
	}
	if got := len(ks.Tenants()); got != 2 {
		t.Fatalf("Tenants() = %d entries, want 2", got)
	}
	if ks.UserTenant() == nil || ks.UserTenant().Name() != UserTenantName {
		t.Fatalf("UserTenant() = %v", ks.UserTenant())
	}
}

func TestResolveRejectsUnknownKeys(t *testing.T) {
	ks := mustKeySet(t, testKeyFile())
	for _, key := range []string{
		"",
		"wrong-key-entirely-x",
		testKeyA[:len(testKeyA)-1],        // near miss
		testKeyA + "x",                    // near miss, longer
		strings.Repeat("x", maxKeyLen+1),  // over the hash buffer
		strings.Repeat("\x00", maxKeyLen), // degenerate bytes
	} {
		if got := ks.Resolve(key); got != nil {
			t.Fatalf("Resolve(%q) = %v, want nil", key, got)
		}
	}
}

func TestResolveDoesNotAllocate(t *testing.T) {
	ks := mustKeySet(t, testKeyFile())
	allocs := testing.AllocsPerRun(1000, func() {
		if ks.Resolve(testKeyA) == nil {
			t.Fatalf("resolve failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Resolve allocates %v per call, want 0", allocs)
	}
}

func TestTenantLimitsApply(t *testing.T) {
	ks := mustKeySet(t, testKeyFile())
	now := time.Now().UnixNano()
	beta := ks.Resolve(testKeyB)
	// beta overrides report to burst 4; the file-level mutation default is
	// burst 200.
	for i := 0; i < 4; i++ {
		if ok, _, _ := beta.buckets[ClassReport].take(now); !ok {
			t.Fatalf("beta report take %d refused under burst 4", i)
		}
	}
	if ok, _, _ := beta.buckets[ClassReport].take(now); ok {
		t.Fatalf("beta report take succeeded past burst 4")
	}
	if got := beta.buckets[ClassMutation].tokens(now); got != 200 {
		t.Fatalf("beta mutation burst = %v, want file default 200", got)
	}
	// alpha takes the file-level default for mutation and package default
	// for report.
	alpha := ks.Resolve(testKeyA)
	if got := alpha.buckets[ClassReport].tokens(now); got != DefaultReportLimit.Burst {
		t.Fatalf("alpha report burst = %v, want package default %v", got, DefaultReportLimit.Burst)
	}
}

var badKeyFiles = map[string]string{
	"empty tenants":   `{"tenants": []}`,
	"no name":         `{"tenants": [{"key": "0123456789abcdef"}]}`,
	"reserved name":   `{"tenants": [{"name": "users", "key": "0123456789abcdef"}]}`,
	"duplicate name":  `{"tenants": [{"name": "a", "key": "0123456789abcdef"}, {"name": "a", "key": "fedcba9876543210"}]}`,
	"short key":       `{"tenants": [{"name": "a", "key": "tooshort"}]}`,
	"oversized key":   `{"tenants": [{"name": "a", "key": "` + strings.Repeat("k", maxKeyLen+1) + `"}]}`,
	"duplicate key":   `{"tenants": [{"name": "a", "key": "0123456789abcdef"}, {"name": "b", "key": "0123456789abcdef"}]}`,
	"negative quota":  `{"tenants": [{"name": "a", "key": "0123456789abcdef", "quota_bytes": -1}]}`,
	"unknown class":   `{"tenants": [{"name": "a", "key": "0123456789abcdef", "limits": {"bulk": {"rps": 1, "burst": 1}}}]}`,
	"zero rps":        `{"tenants": [{"name": "a", "key": "0123456789abcdef", "limits": {"report": {"rps": 0, "burst": 1}}}]}`,
	"tiny burst":      `{"tenants": [{"name": "a", "key": "0123456789abcdef", "limits": {"report": {"rps": 1, "burst": 0.5}}}]}`,
	"bad default":     `{"tenants": [{"name": "a", "key": "0123456789abcdef"}], "default_limits": {"nope": {"rps": 1, "burst": 1}}}`,
	"bad users limit": `{"tenants": [{"name": "a", "key": "0123456789abcdef"}], "users": {"rps": -5, "burst": 1}}`,
	"not json":        `{tenants:}`,
}

func TestParseKeyFileRejectsBadConfigs(t *testing.T) {
	for name, raw := range badKeyFiles {
		if _, err := ParseKeyFile([]byte(raw), time.Now()); err == nil {
			t.Errorf("%s: ParseKeyFile accepted %s", name, raw)
		}
	}
}

// FuzzParseKeyFile: the key file is operator input, re-read on reload.
// Parsing never panics, and a file it accepts is usable as a whole: every
// tenant it lists resolves by its key to itself, names are unique and none
// is the reserved user tenant, quotas are not negative, and every bucket —
// the user surface's too — admits a first request.
func FuzzParseKeyFile(f *testing.F) {
	f.Add([]byte(testKeyFile()))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "0123456789abcdef"}], "users": {"rps": 1e300, "burst": 1e300}}`))
	for _, raw := range badKeyFiles {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		now := time.Now()
		ks, err := ParseKeyFile(raw, now)
		if err != nil {
			return
		}
		var kf KeyFile
		if err := json.Unmarshal(raw, &kf); err != nil || len(kf.Tenants) == 0 || len(ks.Tenants()) != len(kf.Tenants) {
			t.Fatalf("accepted %q: %d tenants resolved, file decodes to %+v (%v)", raw, len(ks.Tenants()), kf, err)
		}
		seen := map[string]bool{UserTenantName: true}
		tenants := append([]*Tenant{ks.UserTenant()}, ks.Tenants()...)
		for i, tc := range kf.Tenants {
			got := ks.Resolve(tc.Key)
			if got == nil || got != tenants[i+1] || got.Name() != tc.Name || seen[tc.Name] || got.QuotaBytes() < 0 {
				t.Fatalf("accepted %q: tenant %d (%q) resolves to %v", raw, i, tc.Name, got)
			}
			seen[tc.Name] = true
		}
		for _, tn := range tenants {
			for c, b := range tn.buckets {
				if ok, _, _ := b.take(now.UnixNano()); !ok {
					t.Fatalf("accepted %q: tenant %q class %d refuses its first request", raw, tn.Name(), c)
				}
			}
		}
	})
}

func TestLoadKeyFileMissingPath(t *testing.T) {
	if _, err := LoadKeyFile("/nonexistent/keys.json", time.Now()); err == nil {
		t.Fatalf("LoadKeyFile on a missing path succeeded")
	}
}
