package core

import (
	"fmt"
	"regexp"
	"testing"

	"github.com/treads-project/treads/internal/attr"
)

func somePayloads(n int) []Payload {
	out := make([]Payload, n)
	for i := range out {
		out[i] = Payload{Kind: PayloadAttr, Attr: attr.ID(fmt.Sprintf("test.attr.a%03d", i))}
	}
	return out
}

func TestNewCodebookAssignsUniqueCodes(t *testing.T) {
	ps := somePayloads(200)
	cb, err := NewCodebook(ps, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.byCode) != 200 {
		t.Fatalf("Len = %d", len(cb.byCode))
	}
	seen := make(map[string]bool)
	for _, p := range ps {
		code := cb.Code(p)
		if code == "" {
			t.Fatalf("no code for %+v", p)
		}
		if seen[code] {
			t.Fatalf("duplicate code %q", code)
		}
		seen[code] = true
		got, ok := cb.Lookup(code)
		if !ok || got != p {
			t.Fatalf("Lookup(%q) = %+v, %v", code, got, ok)
		}
	}
}

func TestCodebookCodeFormat(t *testing.T) {
	// Codes look like Figure 1b's "2,830,120": 7 digits with commas.
	re := regexp.MustCompile(`^\d{1},\d{3},\d{3}$`)
	cb, err := NewCodebook(somePayloads(50), 7)
	if err != nil {
		t.Fatal(err)
	}
	for code := range cb.byCode {
		if !re.MatchString(code) {
			t.Fatalf("code %q not in N,NNN,NNN form", code)
		}
	}
}

func TestCodebookDeterministic(t *testing.T) {
	a, _ := NewCodebook(somePayloads(50), 9)
	b, _ := NewCodebook(somePayloads(50), 9)
	for _, p := range somePayloads(50) {
		if a.Code(p) != b.Code(p) {
			t.Fatal("same seed produced different codes")
		}
	}
	c, _ := NewCodebook(somePayloads(50), 10)
	diff := 0
	for _, p := range somePayloads(50) {
		if a.Code(p) != c.Code(p) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical codebooks")
	}
}

func TestCodebookRejectsDuplicates(t *testing.T) {
	ps := []Payload{{Kind: PayloadControl}, {Kind: PayloadControl}}
	if _, err := NewCodebook(ps, 1); err == nil {
		t.Fatal("duplicate payloads accepted")
	}
}

func TestCodebookRejectsEmptyToken(t *testing.T) {
	if _, err := NewCodebook([]Payload{{Kind: PayloadKind(77)}}, 1); err == nil {
		t.Fatal("unknown-kind payload accepted")
	}
}

func TestCodebookLookupUnknown(t *testing.T) {
	cb, _ := NewCodebook(somePayloads(3), 1)
	if _, ok := cb.Lookup("9,999,999"); ok {
		t.Fatal("lookup of unknown code succeeded")
	}
	if cb.Code(Payload{Kind: PayloadAttr, Attr: "not.in.book"}) != "" {
		t.Fatal("code for unknown payload")
	}
}

func TestCodebookMerge(t *testing.T) {
	a, _ := NewCodebook(somePayloads(10), 1)
	b, _ := NewCodebook([]Payload{{Kind: PayloadControl}}, 2)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.byCode) != 11 {
		t.Fatalf("merged Len = %d", len(a.byCode))
	}
	if a.Code(Payload{Kind: PayloadControl}) == "" {
		t.Fatal("merged payload missing")
	}
	// Re-merging the same book is idempotent.
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.byCode) != 11 {
		t.Fatalf("idempotent merge Len = %d", len(a.byCode))
	}
}

func TestCodebookMergeConflict(t *testing.T) {
	a := EmptyCodebook()
	a.byCode["1,000,000"] = "C"
	a.byToken["C"] = "1,000,000"
	b := EmptyCodebook()
	b.byCode["1,000,000"] = "A:x.y.z"
	b.byToken["A:x.y.z"] = "1,000,000"
	if err := a.Merge(b); err == nil {
		t.Fatal("conflicting merge accepted")
	}
	c := EmptyCodebook()
	c.byCode["2,000,000"] = "C"
	c.byToken["C"] = "2,000,000"
	if err := a.Merge(c); err == nil {
		t.Fatal("conflicting token assignment accepted")
	}
}

func TestFormatCode(t *testing.T) {
	cases := map[int]string{
		2830120: "2,830,120",
		1000000: "1,000,000",
		9999999: "9,999,999",
	}
	for in, want := range cases {
		if got := formatCode(in); got != want {
			t.Errorf("formatCode(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestCodebookFromEntriesRoundTrips rebuilds a codebook from the code→token
// mapping a provider shares, as treads-extension loads it, and checks that
// every code resolves to the same payload.
func TestCodebookFromEntriesRoundTrips(t *testing.T) {
	cb, err := NewCodebook(append(somePayloads(40), Payload{Kind: PayloadControl}), 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CodebookFromEntries(cb.byCode)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.byCode) != len(cb.byCode) {
		t.Fatalf("round trip holds %d entries, want %d", len(got.byCode), len(cb.byCode))
	}
	for code := range cb.byCode {
		want, _ := cb.Lookup(code)
		if p, ok := got.Lookup(code); !ok || p != want {
			t.Fatalf("code %s: round trip resolves to %+v (%v), want %+v", code, p, ok, want)
		}
		if got.Code(want) != code {
			t.Fatalf("payload %+v: round trip codes it %q, want %q", want, got.Code(want), code)
		}
	}
	if _, err := CodebookFromEntries(map[string]string{"1,000,000": "not a token"}); err == nil {
		t.Fatal("malformed token accepted")
	}
	if _, err := CodebookFromEntries(map[string]string{"1,000,000": "C", "2,000,000": "C"}); err == nil {
		t.Fatal("one token under two codes accepted")
	}
}
