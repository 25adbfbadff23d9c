package gateway

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/treads-project/treads/internal/obs"
)

// maxKeyLen caps API-key length. Resolution hashes the presented key into
// a stack buffer of this size, so the auth hot path performs no heap
// allocation regardless of what a client sends.
const maxKeyLen = 64

// ClassLimit is one traffic class's token-bucket parameters.
type ClassLimit struct {
	// RPS is the sustained refill rate, requests per second.
	RPS float64 `json:"rps"`
	// Burst is the bucket capacity — how far above the sustained rate a
	// tenant may briefly spike.
	Burst float64 `json:"burst"`
}

// TenantConfig is one tenant entry in the key file.
type TenantConfig struct {
	// Name identifies the tenant in usage reports, metrics labels, and
	// traffic events. Tenant identity is the API client, not the
	// advertiser account — one agency tenant may manage many advertisers.
	Name string `json:"name"`
	// Key is the tenant's API key, presented as the X-API-Key header (or
	// a Bearer token). At most 64 bytes.
	Key string `json:"key"`
	// Limits overrides the default per-class rate limits, keyed by class
	// name ("mutation", "report"). A class left out uses the file-level
	// defaults.
	Limits map[string]ClassLimit `json:"limits,omitempty"`
	// QuotaBytes caps the tenant's cumulative response bytes — the
	// billing-grade byte quota. 0 means unmetered.
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
}

// KeyFile is the on-disk tenant key file: a JSON object listing tenants
// plus the limits applied to the (keyless) user-facing surface.
type KeyFile struct {
	Tenants []TenantConfig `json:"tenants"`
	// Users configures the single bucket end-user traffic shares. End
	// users present no API key — their identity is the platform session,
	// upstream of this gateway — so the user surface is one pseudo-tenant
	// with a deliberately generous rate. Nil means DefaultUserLimit.
	Users *ClassLimit `json:"users,omitempty"`
	// DefaultLimits are the per-class limits for tenants that do not
	// override them, keyed by class name. Nil entries fall back to the
	// package defaults.
	DefaultLimits map[string]ClassLimit `json:"default_limits,omitempty"`
}

// Package defaults, applied when the key file leaves limits unset.
var (
	DefaultUserLimit     = ClassLimit{RPS: 5000, Burst: 10000}
	DefaultMutationLimit = ClassLimit{RPS: 50, Burst: 100}
	DefaultReportLimit   = ClassLimit{RPS: 20, Burst: 40}
)

// UserTenantName is the reserved pseudo-tenant end-user traffic meters
// under.
const UserTenantName = "users"

// Tenant is one resolved API client: its buckets, quota, and usage
// counters, everything the per-request decision needs behind a single
// pointer so the hot path never touches a map after key resolution.
type Tenant struct {
	name    string
	quota   int64 // bytes; 0 = unmetered
	buckets [numClasses]*tokenBucket
	tokens  [numClasses]*obs.Gauge // gateway_tokens{tenant,class}
	usage   *usageCounters
}

// Name returns the tenant's key-file name.
func (t *Tenant) Name() string { return t.name }

// KeySet is the parsed, validated tenant set. Keys resolve by SHA-256
// digest: the presented key is hashed into a stack buffer and the digest
// looked up, so resolution time is independent of how much of any real
// key a probe happens to share — the same constant-time discipline the
// shard RPC secret uses, without a per-tenant comparison loop.
type KeySet struct {
	byDigest map[[sha256.Size]byte]*Tenant
	tenants  []*Tenant // key-file order, for usage reports
	users    *Tenant
}

// ParseKeyFile parses and validates key-file bytes. now seeds the
// buckets' refill clocks.
func ParseKeyFile(raw []byte, now time.Time) (*KeySet, error) {
	var kf KeyFile
	if err := json.Unmarshal(raw, &kf); err != nil {
		return nil, fmt.Errorf("gateway: parsing key file: %w", err)
	}
	return buildKeySet(kf, now)
}

// LoadKeyFile reads and parses the key file at path.
func LoadKeyFile(path string, now time.Time) (*KeySet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: reading key file: %w", err)
	}
	ks, err := ParseKeyFile(raw, now)
	if err != nil {
		return nil, fmt.Errorf("gateway: %s: %w", path, err)
	}
	return ks, nil
}

func validLimit(class string, l ClassLimit) error {
	if l.RPS <= 0 {
		return fmt.Errorf("class %q rps must be positive, got %v", class, l.RPS)
	}
	if l.Burst < 1 {
		return fmt.Errorf("class %q burst must be at least 1, got %v", class, l.Burst)
	}
	return nil
}

func buildKeySet(kf KeyFile, now time.Time) (*KeySet, error) {
	if len(kf.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: key file has no tenants")
	}
	defaults := [numClasses]ClassLimit{
		ClassUser:     DefaultUserLimit,
		ClassMutation: DefaultMutationLimit,
		ClassReport:   DefaultReportLimit,
	}
	for name, l := range kf.DefaultLimits {
		c, ok := ClassByName(name)
		if !ok {
			return nil, fmt.Errorf("gateway: default_limits: unknown class %q", name)
		}
		if err := validLimit(name, l); err != nil {
			return nil, fmt.Errorf("gateway: default_limits: %w", err)
		}
		defaults[c] = l
	}

	ks := &KeySet{byDigest: make(map[[sha256.Size]byte]*Tenant, len(kf.Tenants))}
	seenName := make(map[string]bool, len(kf.Tenants)+1)
	seenName[UserTenantName] = true
	nanos := now.UnixNano()
	for _, tc := range kf.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("gateway: tenant with empty name")
		}
		if tc.Name == UserTenantName {
			return nil, fmt.Errorf("gateway: tenant name %q is reserved for the user surface", UserTenantName)
		}
		if seenName[tc.Name] {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", tc.Name)
		}
		seenName[tc.Name] = true
		if len(tc.Key) < 16 {
			return nil, fmt.Errorf("gateway: tenant %q: key must be at least 16 bytes", tc.Name)
		}
		if len(tc.Key) > maxKeyLen {
			return nil, fmt.Errorf("gateway: tenant %q: key exceeds %d bytes", tc.Name, maxKeyLen)
		}
		if tc.QuotaBytes < 0 {
			return nil, fmt.Errorf("gateway: tenant %q: quota_bytes must not be negative", tc.Name)
		}
		limits := defaults
		for name, l := range tc.Limits {
			c, ok := ClassByName(name)
			if !ok {
				return nil, fmt.Errorf("gateway: tenant %q: unknown class %q", tc.Name, name)
			}
			if err := validLimit(name, l); err != nil {
				return nil, fmt.Errorf("gateway: tenant %q: %w", tc.Name, err)
			}
			limits[c] = l
		}
		t := &Tenant{name: tc.Name, quota: tc.QuotaBytes}
		for c := Class(0); c < numClasses; c++ {
			t.buckets[c] = newTokenBucket(limits[c].RPS, limits[c].Burst, nanos)
		}
		d := sha256.Sum256([]byte(tc.Key))
		if _, dup := ks.byDigest[d]; dup {
			return nil, fmt.Errorf("gateway: tenant %q: key already assigned to another tenant", tc.Name)
		}
		ks.byDigest[d] = t
		ks.tenants = append(ks.tenants, t)
	}

	ul := DefaultUserLimit
	if kf.Users != nil {
		if err := validLimit("users", *kf.Users); err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		ul = *kf.Users
	}
	ks.users = &Tenant{name: UserTenantName}
	for c := Class(0); c < numClasses; c++ {
		// The user surface shares one limit across its classes: ad-serving
		// rides ClassUser and the keyless transparency pages ClassReport,
		// each against its own bucket of the same size.
		ks.users.buckets[c] = newTokenBucket(ul.RPS, ul.Burst, nanos)
	}
	return ks, nil
}

// Resolve returns the tenant owning the presented key, or nil. The key is
// hashed into a stack buffer (keys longer than maxKeyLen cannot exist, so
// oversized input resolves to nil before hashing) and the digest looked
// up — no allocation, no length- or content-dependent comparisons against
// stored keys.
func (k *KeySet) Resolve(key string) *Tenant {
	if key == "" || len(key) > maxKeyLen {
		return nil
	}
	var buf [maxKeyLen]byte
	n := copy(buf[:], key)
	return k.byDigest[sha256.Sum256(buf[:n])]
}

// UserTenant returns the pseudo-tenant the keyless user surface resolves
// to.
func (k *KeySet) UserTenant() *Tenant { return k.users }

// Tenants returns the API tenants in key-file order (the user
// pseudo-tenant excluded).
func (k *KeySet) Tenants() []*Tenant { return k.tenants }
