package gateway

import "strings"

// Class is a traffic class. The gateway admits, limits, and sheds per
// class, with strict priority: user ad-serving is protected first,
// advertiser mutations next, and reporting/transparency reads are the
// first traffic shed under overload. The ordering encodes the platform's
// revenue-and-experience priorities — a greedy transparency client
// hammering report endpoints (the MyAdChoices-style workload) must never
// starve ad delivery — and the numeric value doubles as the index into
// every per-class metric array, so keep the three classes contiguous
// from zero.
type Class uint8

const (
	// ClassUser is end-user ad-serving traffic: feed browsing, pixel
	// fires, likes. Highest priority; last to shed.
	ClassUser Class = iota
	// ClassMutation is advertiser write traffic: registration, campaign
	// and audience management.
	ClassMutation
	// ClassReport is reporting and transparency read traffic: campaign
	// reports, reach estimates, attribute search, and the user-facing
	// transparency surfaces. Lowest priority; first to shed.
	ClassReport

	numClasses
)

// classNames are the bounded label values per-class metrics export under.
var classNames = [numClasses]string{"user", "mutation", "report"}

// String returns the class's metric label ("user", "mutation", "report").
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// ClassByName resolves a key-file class name; ok is false for names that
// are not limitable classes.
func ClassByName(name string) (Class, bool) {
	for i, n := range classNames {
		if n == name {
			return Class(i), true
		}
	}
	return 0, false
}

// Group is the bounded per-route accounting bucket usage metering counts
// under. Groups are coarser than route patterns — billing cares about
// "how many report reads", not which campaign — and the set is fixed at
// compile time so per-tenant usage arrays never grow.
type Group uint8

const (
	GroupBrowse Group = iota
	GroupFeed
	GroupPixel
	GroupLike
	GroupTransparency
	GroupMutation
	GroupReport
	GroupReach
	GroupAttributes

	numGroups
)

// groupNames are the usage-ledger and /admin/v1/usage keys.
var groupNames = [numGroups]string{
	"browse", "feed", "pixel", "like", "transparency",
	"mutation", "report", "reach", "attributes",
}

// String returns the group's accounting key.
func (g Group) String() string {
	if int(g) < len(groupNames) {
		return groupNames[g]
	}
	return "unknown"
}

// keyless reports whether the group is end-user-origin traffic, which
// presents no API key and meters under the users pseudo-tenant. The
// transparency group is keyless but rides the report class: a user's own
// transparency page is correct-but-deferrable, so it sheds before
// ad-serving, yet it never requires advertiser credentials. Group
// ordering puts the keyless groups first, so this is one comparison.
func (g Group) keyless() bool { return g <= GroupTransparency }

// classify maps a request to its traffic class and accounting group.
// exempt is true for surfaces the gateway must never throttle: metrics
// scrapes, operator/admin endpoints, debug handlers, and anything outside
// the enumerated public API, including unmatched paths under its prefixes
// (unknown paths 404 in the inner handler; metering them would let
// unauthenticated garbage occupy tenant budgets). A public route is matched
// segment by segment, so a path that only ends in a route's suffix is not
// one. The classifier allocates nothing — it runs on every request.
func classify(method, path string) (class Class, group Group, exempt bool) {
	switch {
	case path == "/metrics":
		return 0, 0, true
	case strings.HasPrefix(path, "/admin/"), strings.HasPrefix(path, "/debug/"):
		// Operator surfaces stay reachable during overload by design:
		// shedding the diagnostics needed to see the overload would be
		// self-defeating. They carry their own auth.
		return 0, 0, true
	case strings.HasPrefix(path, "/pixel/"):
		return ClassUser, GroupPixel, false
	case strings.HasPrefix(path, "/api/v1/users/"):
		switch tail(path, "/api/v1/users/") {
		case "browse":
			return ClassUser, GroupBrowse, false
		case "feed":
			return ClassUser, GroupFeed, false
		case "likes":
			return ClassUser, GroupLike, false
		case "adpreferences", "advertisers", "explain":
			// The user-facing transparency pages ride the reporting
			// class: correct but deferrable under load, per the paper's
			// framing of transparency as a parallel, lower-priority
			// surface.
			return ClassReport, GroupTransparency, false
		}
	case path == "/api/v1/attributes":
		return ClassReport, GroupAttributes, false
	case path == "/api/v1/advertisers":
		return ClassMutation, GroupMutation, false
	case strings.HasPrefix(path, "/api/v1/advertisers/"):
		route := tail(path, "/api/v1/advertisers/")
		switch route {
		case "reach":
			return ClassReport, GroupReach, false
		case "campaigns", "pixels", "audiences/pii", "audiences/website",
			"audiences/engagement", "audiences/affinity", "audiences/lookalike":
			return ClassMutation, GroupMutation, false
		}
		rest, campaign := strings.CutPrefix(route, "campaigns/")
		id, action, _ := strings.Cut(rest, "/")
		switch {
		case !campaign || id == "":
		case action == "report" && method == "GET":
			return ClassReport, GroupReport, false
		case action == "report", action == "pause":
			return ClassMutation, GroupMutation, false
		}
	}
	return 0, 0, true
}

// tail strips prefix and the path segment after it (the user ID or the
// advertiser name) and returns the rest: "", which names no route, when
// that segment is empty or nothing follows it.
func tail(path, prefix string) string {
	id, route, ok := strings.Cut(path[len(prefix):], "/")
	if !ok || id == "" {
		return ""
	}
	return route
}
