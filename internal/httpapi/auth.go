package httpapi

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Authenticator issues and verifies per-advertiser API tokens. When a
// Server is constructed with RequireAuth, every advertiser-scoped endpoint
// demands `Authorization: Bearer <token>` matching the account in the
// path — so one advertiser cannot act as (or read reports of) another,
// the same boundary the ownership checks enforce in-process.
type Authenticator struct {
	mu     sync.RWMutex
	tokens map[string]string // advertiser -> token
}

// NewAuthenticator returns an empty authenticator.
func NewAuthenticator() *Authenticator {
	return &Authenticator{tokens: make(map[string]string)}
}

// Issue mints a token for the advertiser, replacing any previous one.
func (a *Authenticator) Issue(advertiser string) (string, error) {
	buf := make([]byte, 24)
	if _, err := rand.Read(buf); err != nil {
		return "", fmt.Errorf("httpapi: generating token: %w", err)
	}
	tok := "tk_" + hex.EncodeToString(buf)
	a.mu.Lock()
	a.tokens[advertiser] = tok
	a.mu.Unlock()
	return tok, nil
}

// Verify reports whether the token is the advertiser's current token.
// Comparison is constant-time.
func (a *Authenticator) Verify(advertiser, token string) bool {
	a.mu.RLock()
	want, ok := a.tokens[advertiser]
	a.mu.RUnlock()
	if !ok || token == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(want), []byte(token)) == 1
}

// BearerToken extracts the Bearer token from a request, "" if absent. It
// is exported for the shard RPC transport, which authenticates peers with
// the same Authorization header the advertiser API uses.
func BearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(h, prefix) {
		return ""
	}
	return strings.TrimSpace(h[len(prefix):])
}

// SecretEqual reports whether a presented secret matches the expected one,
// in constant time, so the comparison leaks nothing about the expected
// value through timing. An empty expected secret never matches — callers
// that want "no auth configured" must decide that before comparing.
func SecretEqual(expected, presented string) bool {
	if expected == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(expected), []byte(presented)) == 1
}

// requireAdvertiserAuth wraps an advertiser-scoped handler with the token
// check when auth is enabled.
func (s *Server) requireAdvertiserAuth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.auth != nil {
			name := r.PathValue("name")
			if !s.auth.Verify(name, BearerToken(r)) {
				writeErr(w, http.StatusUnauthorized,
					fmt.Errorf("httpapi: missing or invalid API token for advertiser %q", name))
				return
			}
		}
		next(w, r)
	}
}
