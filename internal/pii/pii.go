// Package pii implements the PII normalization and hashing contract that
// advertising platforms require for custom-audience uploads ("PII-based
// targeting" in §2.1 of the paper).
//
// Platforms match uploaded personally identifying information against their
// user database using SHA-256 hashes of normalized values, so an advertiser
// (or a transparency provider) never has to hand the platform — and a user
// never has to hand a transparency provider — raw PII (§3.1, "Supporting
// PII"). This package provides the exact normalization rules and the typed
// match keys both sides of that exchange use.
package pii

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Type identifies which kind of PII a match key was derived from.
type Type int

const (
	// Email is a lower-cased, trimmed email address.
	Email Type = iota
	// Phone is an E.164-style digits-only phone number.
	Phone
)

func (t Type) String() string {
	switch t {
	case Email:
		return "email"
	case Phone:
		return "phone"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// MatchKey is a hashed, normalized piece of PII as uploaded to a platform.
// Only hashes cross trust boundaries; the raw value never does.
type MatchKey struct {
	Type Type
	// Hash is the lower-case hex SHA-256 of the normalized value.
	Hash string
}

func (k MatchKey) String() string { return fmt.Sprintf("%s:%s", k.Type, k.Hash) }

// NormalizeEmail applies the platform normalization rules for email
// addresses: trim whitespace and lower-case. It returns an error if the
// result does not look like an address (must contain a single "@" with
// non-empty local part and a domain containing a dot).
func NormalizeEmail(raw string) (string, error) {
	e := strings.ToLower(strings.TrimSpace(raw))
	at := strings.IndexByte(e, '@')
	if at <= 0 || at != strings.LastIndexByte(e, '@') {
		return "", fmt.Errorf("pii: malformed email %q", raw)
	}
	domain := e[at+1:]
	if len(domain) < 3 || !strings.Contains(domain, ".") ||
		strings.HasPrefix(domain, ".") || strings.HasSuffix(domain, ".") {
		return "", fmt.Errorf("pii: malformed email domain %q", raw)
	}
	return e, nil
}

// NormalizePhone applies the platform normalization rules for phone
// numbers: strip everything but digits, then require a country code. A
// leading "+" is dropped; a bare 10-digit number is assumed to be US and
// prefixed with "1" (the paper's validation is US-based).
func NormalizePhone(raw string) (string, error) {
	var b strings.Builder
	for _, r := range raw {
		if r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	digits := b.String()
	switch {
	case len(digits) == 10:
		digits = "1" + digits
	case len(digits) < 11 || len(digits) > 15:
		return "", fmt.Errorf("pii: malformed phone %q", raw)
	}
	return digits, nil
}

// hashValue is the single hashing primitive: SHA-256, lower-case hex.
func hashValue(normalized string) string {
	sum := sha256.Sum256([]byte(normalized))
	return hex.EncodeToString(sum[:])
}

// HashEmail normalizes and hashes an email address into a MatchKey.
func HashEmail(raw string) (MatchKey, error) {
	n, err := NormalizeEmail(raw)
	if err != nil {
		return MatchKey{}, err
	}
	return MatchKey{Type: Email, Hash: hashValue(n)}, nil
}

// HashPhone normalizes and hashes a phone number into a MatchKey.
func HashPhone(raw string) (MatchKey, error) {
	n, err := NormalizePhone(raw)
	if err != nil {
		return MatchKey{}, err
	}
	return MatchKey{Type: Phone, Hash: hashValue(n)}, nil
}

// Record is the set of PII the platform holds for one user. The platform
// may have collected entries the user never provided directly (numbers
// synced from friends' contact books, 2FA numbers — see Venkatadri et al.,
// PETS 2019, cited as [35]).
type Record struct {
	Emails []string
	Phones []string
}

// MatchKeys returns the platform-side match keys for every well-formed
// piece of PII in the record. Malformed entries are skipped: a platform
// ingesting dirty broker data does not reject the whole record.
func (r Record) MatchKeys() []MatchKey {
	var keys []MatchKey
	for _, e := range r.Emails {
		if k, err := HashEmail(e); err == nil {
			keys = append(keys, k)
		}
	}
	for _, p := range r.Phones {
		if k, err := HashPhone(p); err == nil {
			keys = append(keys, k)
		}
	}
	return keys
}
