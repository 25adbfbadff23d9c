package httpapi

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPIDocsListTheRouteTable holds docs/API.md's route tables equal to
// the route table plus the two hand-written routes: every row of the table
// has a row in the docs, and every route the docs list is served.
func TestAPIDocsListTheRouteTable(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		cell, _, _ = strings.Cut(cell, "`")
		cell, _, _ = strings.Cut(cell, "?")
		if f := strings.Fields(cell); len(f) == 2 && f[0] == strings.ToUpper(f[0]) && strings.HasPrefix(f[1], "/") {
			documented[f[0]+" "+f[1]] = true
		}
	}
	served := map[string]bool{"GET /admin/v1/trace": true, "GET /metrics": true}
	for _, rt := range Routes {
		served[rt.Pattern] = true
	}
	var missing, extra []string
	for p := range served {
		if !documented[p] {
			missing = append(missing, p)
		}
	}
	for p := range documented {
		if !served[p] {
			extra = append(extra, p)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, p := range missing {
		t.Errorf("docs/API.md has no row for %s", p)
	}
	for _, p := range extra {
		t.Errorf("docs/API.md lists %s, which the server does not serve", p)
	}
}
