package audience

import (
	"fmt"
	"slices"
	"sort"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
)

// State is the engine's serializable form.
type State struct {
	NextID    int             `json:"next_id"`
	Audiences []AudienceState `json:"audiences,omitempty"`
}

// AudienceState is one stored audience.
type AudienceState struct {
	ID         AudienceID     `json:"id"`
	Advertiser string         `json:"advertiser"`
	Kind       string         `json:"kind"`
	Name       string         `json:"name,omitempty"`
	Keys       []pii.MatchKey `json:"keys,omitempty"`
	Pixel      pixel.PixelID  `json:"pixel,omitempty"`
	PageID     string         `json:"page_id,omitempty"`
	Phrases    []string       `json:"phrases,omitempty"`
	Affinity   []attr.ID      `json:"affinity,omitempty"`

	// Lookalike materialized state.
	Seed        AudienceID       `json:"seed,omitempty"`
	Signature   []attr.ID        `json:"signature,omitempty"`
	Overlap     float64          `json:"overlap,omitempty"`
	SeedMembers []profile.UserID `json:"seed_members,omitempty"`
}

// Snapshot exports the engine's audiences.
func (e *Engine) Snapshot() State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := State{NextID: e.nextID}
	ids := make([]AudienceID, 0, len(e.audiences))
	for id := range e.audiences {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a := e.audiences[id]
		as := AudienceState{
			ID: a.ID, Advertiser: a.Advertiser, Kind: a.Kind.String(),
			Name: a.Name, Pixel: a.pixel, PageID: a.pageID,
			Phrases: append([]string(nil), a.phrases...),
		}
		for k := range a.keys {
			as.Keys = append(as.Keys, k)
		}
		sort.Slice(as.Keys, func(i, j int) bool {
			if as.Keys[i].Type != as.Keys[j].Type {
				return as.Keys[i].Type < as.Keys[j].Type
			}
			return as.Keys[i].Hash < as.Keys[j].Hash
		})
		for id := range a.affinity {
			as.Affinity = append(as.Affinity, id)
		}
		sort.Slice(as.Affinity, func(i, j int) bool { return as.Affinity[i] < as.Affinity[j] })
		if a.Kind == KindLookalike {
			as.Seed = a.seed
			as.Signature = append([]attr.ID(nil), a.signature...)
			as.Overlap = a.overlap
			for uid := range a.seedMembers {
				as.SeedMembers = append(as.SeedMembers, uid)
			}
			sort.Slice(as.SeedMembers, func(i, j int) bool { return as.SeedMembers[i] < as.SeedMembers[j] })
		}
		s.Audiences = append(s.Audiences, as)
	}
	return s
}

// RestoreState rebuilds an engine over the given store and registry.
func RestoreState(s State, store *profile.Store, pixels *pixel.Registry) (*Engine, error) {
	e := NewEngine(store, pixels)
	e.nextID = s.NextID
	for _, as := range s.Audiences {
		if as.ID == "" {
			return nil, fmt.Errorf("audience: state with empty audience ID")
		}
		if _, dup := e.audiences[as.ID]; dup {
			return nil, fmt.Errorf("audience: duplicate audience %q in state", as.ID)
		}
		a := &Audience{ID: as.ID, Advertiser: as.Advertiser, Kind: Kind(slices.Index(kindNames[:], as.Kind)), Name: as.Name}
		switch a.Kind {
		case KindPII:
			a.keys = make(map[pii.MatchKey]bool, len(as.Keys))
			for _, k := range as.Keys {
				a.keys[k] = true
			}
		case KindWebsite:
			if pixels.Get(as.Pixel) == nil {
				return nil, fmt.Errorf("audience: audience %q references unknown pixel %q", as.ID, as.Pixel)
			}
			a.pixel = as.Pixel
		case KindEngagement:
			a.pageID = as.PageID
		case KindAffinity:
			a.phrases = append([]string(nil), as.Phrases...)
			a.affinity = make(map[attr.ID]bool, len(as.Affinity))
			for _, id := range as.Affinity {
				a.affinity[id] = true
			}
		case KindLookalike:
			a.seed = as.Seed
			a.signature = append([]attr.ID(nil), as.Signature...)
			a.overlap = as.Overlap
			a.seedMembers = make(map[profile.UserID]bool, len(as.SeedMembers))
			for _, uid := range as.SeedMembers {
				a.seedMembers[uid] = true
			}
		default:
			return nil, fmt.Errorf("audience: unknown kind %q in state", as.Kind)
		}
		e.audiences[a.ID] = a
	}
	return e, nil
}
