//go:build !race

package profile

import (
	"testing"

	"github.com/treads-project/treads/internal/pii"
)

// TestAppendSnapshotJSONZeroAlloc pins the compaction encoder at zero
// allocations for a profile with likes, binary and categorical attributes,
// PII and coordinates, all plain ASCII, written into a buffer with room:
// the likes are encoded from the sorted slice the profile holds, and the
// attributes through the ID table, with no copy of either. Excluded under
// -race, which allocates on its own.
func TestAppendSnapshotJSONZeroAlloc(t *testing.T) {
	p := New("user-000042")
	p.AgeYrs, p.Sex = 37, "female"
	p.SetCountry("US")
	p.SetRegion("Boston")
	p.SetLocation(42.36, -71.06)
	p.SetPII(pii.Record{Emails: []string{"user-000042@example.com"}, Phones: []string{"16175550042"}})
	p.SetAttr("platform.music.jazz")
	p.SetAttr("partner.financial.net_worth_2m_plus")
	p.SetAttrValue("partner.household.life_stage", "young_family")
	p.Like("page-b")
	p.Like("page-a")
	p.pack()
	buf := make([]byte, 0, 4096)
	var out []byte
	allocs := testing.AllocsPerRun(100, func() { out = p.AppendSnapshotJSON(buf[:0]) })
	if allocs != 0 {
		t.Fatalf("AppendSnapshotJSON allocates %.1f times per profile, want 0", allocs)
	}
	if want := `"likes":["page-a","page-b"],"binary":["partner.financial.net_worth_2m_plus","platform.music.jazz"],"values":{"partner.household.life_stage":"young_family"}}`; len(out) < len(want) || string(out[len(out)-len(want):]) != want {
		t.Fatalf("AppendSnapshotJSON = %s, want it to end %s", out, want)
	}
}

// TestPIIZeroAlloc: PII is a view of the one backing array the profile
// holds its emails and phones in, not a copy of either list.
func TestPIIZeroAlloc(t *testing.T) {
	p := New("user-000042")
	p.SetPII(pii.Record{Emails: []string{"a@example.com", "b@example.com"}, Phones: []string{"16175550042"}})
	var rec pii.Record
	if allocs := testing.AllocsPerRun(100, func() { rec = p.PII() }); allocs != 0 {
		t.Fatalf("PII allocates %.1f times, want 0", allocs)
	}
	if len(rec.Emails) != 2 || cap(rec.Emails) != 2 || len(rec.Phones) != 1 || rec.Phones[0] != "16175550042" {
		t.Fatalf("PII = %q (cap %d) %q", rec.Emails, cap(rec.Emails), rec.Phones)
	}
}
