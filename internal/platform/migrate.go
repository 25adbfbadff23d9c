package platform

import (
	"fmt"
	"sort"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// MigrationChunk is the movable portion of platform state for a set of
// users: their profiles plus every per-user row scattered through the
// subsystems — impression feeds, slot counters, pixel visit logs, lookalike
// seed memberships, and exact billing splits. Frequency-cap counts are not
// rows: the importer recounts them from the feeds (a "freq" key in a chunk
// written by an older build is not decoded).
// Advertiser-side configuration (accounts, campaigns, audiences, pixels,
// policy) is NOT part of a chunk; it is replicated to every shard already,
// so moving a user only moves the rows keyed by that user.
//
// A chunk travels as a journaled import_users record and over RPC, so its
// encoded size is bounded by the journal's record limit; callers split
// large user sets into multiple chunks.
type MigrationChunk struct {
	Profiles    []profile.State        `json:"profiles,omitempty"`
	Feeds       []delivery.FeedState   `json:"feeds,omitempty"`
	Slots       []delivery.SlotState   `json:"slots,omitempty"`
	Visits      []PixelVisits          `json:"visits,omitempty"`
	SeedMembers []AudienceMembers      `json:"seed_members,omitempty"`
	Billing     []billing.AccountState `json:"billing,omitempty"`
}

// PixelVisits is the moving users' slice of one pixel's visitor log, in
// the source shard's first-visit order.
type PixelVisits struct {
	Pixel pixel.PixelID    `json:"pixel"`
	Users []profile.UserID `json:"users"`
}

// AudienceMembers is the moving users' slice of one lookalike audience's
// seed-member set. Seed members are excluded from lookalike matching, so
// dropping these rows would silently change targeting on the new owner.
type AudienceMembers struct {
	Audience audience.AudienceID `json:"audience"`
	Users    []profile.UserID    `json:"users"`
}

// UserSet builds a membership predicate from a user list.
func UserSet(users []profile.UserID) func(profile.UserID) bool {
	set := make(map[profile.UserID]bool, len(users))
	for _, u := range users {
		set[u] = true
	}
	return func(u profile.UserID) bool { return set[u] }
}

// Users returns every user the chunk carries rows for (sorted).
func (c *MigrationChunk) Users() []profile.UserID {
	set := make(map[profile.UserID]bool)
	for _, ps := range c.Profiles {
		set[ps.ID] = true
	}
	for _, fs := range c.Feeds {
		set[fs.User] = true
	}
	for _, ss := range c.Slots {
		set[ss.User] = true
	}
	for _, pv := range c.Visits {
		for _, u := range pv.Users {
			set[u] = true
		}
	}
	for _, am := range c.SeedMembers {
		for _, u := range am.Users {
			set[u] = true
		}
	}
	for _, as := range c.Billing {
		for _, us := range as.Users {
			set[us.User] = true
		}
	}
	out := make([]profile.UserID, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// keepIf returns the rows keep selects, nil when there are none; rows is
// not modified.
func keepIf[T any](rows []T, keep func(T) bool) []T {
	var out []T
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// filterUsers returns s with only the selected users' rows left in every
// per-user row family: profiles, feeds, slot counters, pixel visitors,
// lookalike seed members and ledger user rows. It is the one place that
// knows which rows of a state belong to a user. Advertiser-side
// configuration and the RNG seed are untouched; the input is not modified
// and the result shares no mutable backing arrays with it.
func filterUsers(s State, keep func(profile.UserID) bool) State {
	out := s
	out.Profiles = keepIf(s.Profiles, func(ps profile.State) bool { return keep(ps.ID) })
	out.Pipeline.Feeds = keepIf(s.Pipeline.Feeds, func(fs delivery.FeedState) bool { return keep(fs.User) })
	out.Pipeline.Slots = keepIf(s.Pipeline.Slots, func(ss delivery.SlotState) bool { return keep(ss.User) })
	out.Pixels.Pixels = nil
	for _, px := range s.Pixels.Pixels {
		px.Visitors = keepIf(px.Visitors, keep)
		out.Pixels.Pixels = append(out.Pixels.Pixels, px)
	}
	out.Audiences.Audiences = nil
	for _, as := range s.Audiences.Audiences {
		as.SeedMembers = keepIf(as.SeedMembers, keep)
		out.Audiences.Audiences = append(out.Audiences.Audiences, as)
	}
	out.Ledger = billing.FilterUsersState(s.Ledger, keep)
	return out
}

// ExtractUsersChunk collects the movable rows for the selected users from
// a state snapshot: the filtered state's non-empty rows.
func ExtractUsersChunk(s State, keep func(profile.UserID) bool) MigrationChunk {
	f := filterUsers(s, keep)
	c := MigrationChunk{
		Profiles: f.Profiles,
		Feeds:    f.Pipeline.Feeds,
		Slots:    f.Pipeline.Slots,
		Billing:  f.Ledger.Accounts,
	}
	for _, px := range f.Pixels.Pixels {
		if len(px.Visitors) > 0 {
			c.Visits = append(c.Visits, PixelVisits{Pixel: px.ID, Users: px.Visitors})
		}
	}
	for _, as := range f.Audiences.Audiences {
		if len(as.SeedMembers) > 0 {
			c.SeedMembers = append(c.SeedMembers, AudienceMembers{Audience: as.ID, Users: as.SeedMembers})
		}
	}
	return c
}

// RemoveUsersState returns s with every per-user row for the dropped users
// filtered out; the RNG seed is preserved so the shard's auction stream
// continues unperturbed.
func RemoveUsersState(s State, drop func(profile.UserID) bool) State {
	return filterUsers(s, func(u profile.UserID) bool { return !drop(u) })
}

// StripUsersState returns s with every user removed and the RNG reseeded:
// the advertiser-side skeleton (accounts, campaigns, audiences, pixels,
// policy state, campaign numbering) a freshly added shard boots from
// before user chunks stream in. The new shard needs its own seed — two
// shards drawing from the same auction RNG stream would be a replay
// hazard, not a divergence, but distinct streams keep per-shard runs
// independently deterministic.
func StripUsersState(s State, newSeed uint64) State {
	out := filterUsers(s, func(profile.UserID) bool { return false })
	out.Seed = newSeed
	return out
}

// MergeChunkState folds a migration chunk into a state snapshot with
// replace semantics per user: any rows the destination already holds for a
// chunk user are dropped first, so re-importing the same chunk after a
// failed cutover is idempotent. Per-user row orderings follow the snapshot
// conventions (sorted by user; pixel visitors keep arrival order with the
// chunk's users appended after existing visitors). Referential integrity
// is checked: a chunk row naming a campaign, pixel, or audience the
// destination does not know is an error, because advertiser configuration
// is supposed to be replicated everywhere before users move.
func MergeChunkState(s State, c MigrationChunk) (State, error) {
	moved := UserSet(c.Users())
	out := RemoveUsersState(s, moved)

	campaigns := make(map[string]bool, len(out.Pipeline.Campaigns))
	for _, cs := range out.Pipeline.Campaigns {
		campaigns[cs.ID] = true
	}
	for _, fs := range c.Feeds {
		for _, imp := range fs.Impressions {
			if !campaigns[imp.CampaignID] {
				return State{}, fmt.Errorf("platform: chunk has an impression of unknown campaign %q in the feed of %s", imp.CampaignID, fs.User)
			}
		}
	}
	for _, as := range c.Billing {
		if !campaigns[as.CampaignID] {
			return State{}, fmt.Errorf("platform: chunk has billing rows for unknown campaign %q", as.CampaignID)
		}
	}

	// filterUsers built every slice of out afresh, so appending to them
	// cannot reach into s.
	out.Profiles = append(out.Profiles, c.Profiles...)

	out.Pipeline.Feeds = append(out.Pipeline.Feeds, c.Feeds...)
	sort.Slice(out.Pipeline.Feeds, func(i, j int) bool { return out.Pipeline.Feeds[i].User < out.Pipeline.Feeds[j].User })

	out.Pipeline.Slots = append(out.Pipeline.Slots, c.Slots...)
	sort.Slice(out.Pipeline.Slots, func(i, j int) bool { return out.Pipeline.Slots[i].User < out.Pipeline.Slots[j].User })

	pixelIdx := make(map[pixel.PixelID]int, len(out.Pixels.Pixels))
	for i, px := range out.Pixels.Pixels {
		pixelIdx[px.ID] = i
	}
	for _, pv := range c.Visits {
		i, ok := pixelIdx[pv.Pixel]
		if !ok {
			return State{}, fmt.Errorf("platform: chunk has visits for unknown pixel %q", pv.Pixel)
		}
		out.Pixels.Pixels[i].Visitors = append(out.Pixels.Pixels[i].Visitors, pv.Users...)
	}

	audIdx := make(map[audience.AudienceID]int, len(out.Audiences.Audiences))
	for i, as := range out.Audiences.Audiences {
		audIdx[as.ID] = i
	}
	for _, am := range c.SeedMembers {
		i, ok := audIdx[am.Audience]
		if !ok {
			return State{}, fmt.Errorf("platform: chunk has seed members for unknown audience %q", am.Audience)
		}
		mem := append(out.Audiences.Audiences[i].SeedMembers, am.Users...)
		sort.Slice(mem, func(a, b int) bool { return mem[a] < mem[b] })
		out.Audiences.Audiences[i].SeedMembers = mem
	}

	out.Ledger = billing.MergeUsersState(out.Ledger, billing.State{
		BillableThreshold: out.Ledger.BillableThreshold,
		Accounts:          c.Billing,
	})
	return out, nil
}
