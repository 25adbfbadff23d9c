package gateway

import (
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/httpapi"
)

// TestClassifyFollowsTheRouteTable walks the public API's route table with
// its parameters filled in: every public route is admitted under its class
// and accounting group, every operator route is exempt. A route added to
// the table without a class here fails, and so does one the classifier's
// path matching would file elsewhere.
func TestClassifyFollowsTheRouteTable(t *testing.T) {
	type want struct {
		class Class
		group Group
	}
	public := map[string]want{
		"POST /api/v1/advertisers":                             {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/campaigns":            {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/campaigns/{id}/pause": {ClassMutation, GroupMutation},
		"GET /api/v1/advertisers/{name}/campaigns/{id}/report": {ClassReport, GroupReport},
		"POST /api/v1/advertisers/{name}/audiences/pii":        {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/audiences/website":    {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/audiences/engagement": {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/audiences/affinity":   {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/audiences/lookalike":  {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/pixels":               {ClassMutation, GroupMutation},
		"POST /api/v1/advertisers/{name}/reach":                {ClassReport, GroupReach},
		"GET /api/v1/attributes":                               {ClassReport, GroupAttributes},
		"POST /api/v1/users/{id}/browse":                       {ClassUser, GroupBrowse},
		"GET /api/v1/users/{id}/feed":                          {ClassUser, GroupFeed},
		"GET /api/v1/users/{id}/adpreferences":                 {ClassReport, GroupTransparency},
		"GET /api/v1/users/{id}/advertisers":                   {ClassReport, GroupTransparency},
		"POST /api/v1/users/{id}/likes":                        {ClassUser, GroupLike},
		"POST /api/v1/users/{id}/explain":                      {ClassReport, GroupTransparency},
		"GET /pixel/{pixelID}":                                 {ClassUser, GroupPixel},
	}
	seen := 0
	for _, rt := range httpapi.Routes {
		// The IDs are chosen to end in other routes' suffixes, so a
		// classifier that matched a parameter would be caught.
		url := rt.URL(httpapi.Params{Name: "reach", ID: "report", PixelID: "feed", Slots: 3, Q: "likes", UID: "browse"})
		path, _, _ := strings.Cut(url, "?")
		class, group, exempt := classify(rt.Method, path)
		switch rt.Scope {
		case httpapi.Admin, httpapi.Compaction, httpapi.Membership:
			if !exempt {
				t.Errorf("operator route %s (%s %s) is metered as (%v, %v), want exempt", rt.Pattern, rt.Method, path, class, group)
			}
			continue
		}
		w, ok := public[rt.Pattern]
		if !ok {
			t.Errorf("public route %s has no class in this test", rt.Pattern)
			continue
		}
		seen++
		if exempt || class != w.class || group != w.group {
			t.Errorf("classify(%s %s) = (%v, %v, exempt %v), want (%v, %v)", rt.Method, path, class, group, exempt, w.class, w.group)
		}
	}
	if seen != len(public) {
		t.Errorf("the route table has %d of the %d public routes this test classifies", seen, len(public))
	}
}
