package pii

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalizeEmail(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"Alice@Example.COM", "alice@example.com", true},
		{"  bob@example.com \n", "bob@example.com", true},
		{"user.name+tag@sub.example.org", "user.name+tag@sub.example.org", true},
		{"noat.example.com", "", false},
		{"two@@example.com", "", false},
		{"a@b@c.com", "", false},
		{"@example.com", "", false},
		{"x@nodot", "", false},
		{"x@.com", "", false},
		{"x@com.", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, err := NormalizeEmail(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("NormalizeEmail(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("NormalizeEmail(%q) should fail", c.in)
		}
	}
}

func TestNormalizePhone(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"+1 (617) 555-0123", "16175550123", true},
		{"617-555-0123", "16175550123", true}, // bare 10 digits assumed US
		{"16175550123", "16175550123", true},
		{"+44 20 7946 0958", "442079460958", true},
		{"12345", "", false},
		{"", "", false},
		{"+123456789012345678", "", false}, // too long
	}
	for _, c := range cases {
		got, err := NormalizePhone(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("NormalizePhone(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("NormalizePhone(%q) should fail", c.in)
		}
	}
}

func TestHashEmailStableAndNormalized(t *testing.T) {
	a, err := HashEmail("Alice@Example.com")
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashEmail(" alice@example.com ")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent emails hash differently: %v vs %v", a, b)
	}
	if a.Type != Email {
		t.Fatalf("Type = %v", a.Type)
	}
	if len(a.Hash) != 64 || strings.ToLower(a.Hash) != a.Hash {
		t.Fatalf("hash not lower-hex sha256: %q", a.Hash)
	}
	// Known vector: sha256("alice@example.com").
	const want = "ff8d9819fc0e12bf0d24892e45987e249a28dce836a85cad60e28eaaa8c6d976"
	if a.Hash != want {
		t.Fatalf("hash = %s, want %s", a.Hash, want)
	}
}

func TestHashPhoneMatchesAcrossFormats(t *testing.T) {
	a, err := HashPhone("+1 (617) 555-0123")
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashPhone("617.555.0123")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same number in different formats should match")
	}
	if a.Type != Phone {
		t.Fatalf("Type = %v", a.Type)
	}
}

func TestHashErrorsPropagate(t *testing.T) {
	if _, err := HashEmail("bogus"); err == nil {
		t.Error("HashEmail should fail on malformed input")
	}
	if _, err := HashPhone("12"); err == nil {
		t.Error("HashPhone should fail on malformed input")
	}
}

func TestEmailPhoneHashDomainsDisjoint(t *testing.T) {
	// A MatchKey carries its type, so an email hash can never be confused
	// with a phone hash even if the underlying strings collided.
	e, _ := HashEmail("a@b.com")
	p, _ := HashPhone("6175550123")
	if e == p {
		t.Fatal("email and phone keys compare equal")
	}
}

func TestRecordMatchKeys(t *testing.T) {
	r := Record{
		Emails: []string{"alice@example.com", "not-an-email", "Alice@Example.com"},
		Phones: []string{"617-555-0123", "bad"},
	}
	keys := r.MatchKeys()
	// 2 valid email entries (same key twice) + 1 valid phone.
	if len(keys) != 3 {
		t.Fatalf("MatchKeys = %d entries, want 3", len(keys))
	}
	ek, _ := HashEmail("alice@example.com")
	pk, _ := HashPhone("617-555-0123")
	if !slices.Contains(r.MatchKeys(), ek) {
		t.Error("record should contain its email key")
	}
	if !slices.Contains(r.MatchKeys(), pk) {
		t.Error("record should contain its phone key")
	}
	other, _ := HashEmail("bob@example.com")
	if slices.Contains(r.MatchKeys(), other) {
		t.Error("record should not contain a foreign key")
	}
}

func TestEmptyRecord(t *testing.T) {
	var r Record
	if len(r.MatchKeys()) != 0 {
		t.Error("empty record has match keys")
	}
	k, _ := HashEmail("a@b.co")
	if slices.Contains(r.MatchKeys(), k) {
		t.Error("empty record contains a key")
	}
}

func TestTypeString(t *testing.T) {
	if Email.String() != "email" || Phone.String() != "phone" {
		t.Error("Type strings wrong")
	}
	if !strings.Contains(Type(7).String(), "7") {
		t.Error("unknown Type string wrong")
	}
	k := MatchKey{Type: Email, Hash: "abc"}
	if k.String() != "email:abc" {
		t.Errorf("MatchKey.String() = %q", k.String())
	}
}

func TestNormalizeEmailIdempotentProperty(t *testing.T) {
	f := func(local, domain uint8) bool {
		raw := strings.Repeat("A", int(local%5)+1) + "@ex" + strings.Repeat("a", int(domain%4)) + "mple.com"
		n1, err := NormalizeEmail(raw)
		if err != nil {
			return true // not all generated inputs are valid; fine
		}
		n2, err := NormalizeEmail(n1)
		return err == nil && n1 == n2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizePhoneIdempotentOnNormalized(t *testing.T) {
	n, err := NormalizePhone("+1 617 555 0123")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NormalizePhone(n)
	if err != nil || n2 != n {
		t.Fatalf("re-normalizing %q gave %q, %v", n, n2, err)
	}
}
