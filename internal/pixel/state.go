package pixel

import (
	"fmt"

	"github.com/treads-project/treads/internal/profile"
)

// State is the registry's serializable form.
type State struct {
	NextID int          `json:"next_id"`
	Pixels []PixelState `json:"pixels,omitempty"`
}

// PixelState is one pixel plus its visitor log (first-visit order).
type PixelState struct {
	ID         PixelID          `json:"id"`
	Advertiser string           `json:"advertiser"`
	Visitors   []profile.UserID `json:"visitors,omitempty"`
}

// Snapshot exports the registry, naming each visitor by its user ID in
// users, the store whose ordinals the registry holds.
func (r *Registry) Snapshot(users *profile.Store) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Taken under r.mu: every ordinal recorded so far names a user in it.
	uids := users.UserIDs()
	s := State{NextID: r.nextID}
	// Deterministic order: by first-issue is lost in the map; reconstruct
	// a stable order by the numeric suffix embedded in issued IDs.
	ids := make([]PixelID, 0, len(r.pixels))
	for id := range r.pixels {
		ids = append(ids, id)
	}
	sortPixelIDs(ids)
	for _, id := range ids {
		px := r.pixels[id]
		ps := PixelState{ID: px.ID, Advertiser: px.Advertiser}
		for _, o := range r.visits[id].order {
			ps.Visitors = append(ps.Visitors, uids[o])
		}
		s.Pixels = append(s.Pixels, ps)
	}
	return s
}

func sortPixelIDs(ids []PixelID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// RestoreState rebuilds a registry from a snapshot over users, the store
// restored from the same state. A visitor users does not hold is refused:
// a visit is only ever recorded for a user of the node.
func RestoreState(s State, users *profile.Store) (*Registry, error) {
	r := NewRegistry()
	r.nextID = s.NextID
	for _, ps := range s.Pixels {
		if ps.ID == "" {
			return nil, fmt.Errorf("pixel: state with empty pixel ID")
		}
		if _, dup := r.pixels[ps.ID]; dup {
			return nil, fmt.Errorf("pixel: duplicate pixel %q in state", ps.ID)
		}
		px := &Pixel{ID: ps.ID, Advertiser: ps.Advertiser}
		r.pixels[px.ID] = px
		v := &visitors{}
		r.visits[px.ID] = v
		for _, uid := range ps.Visitors {
			o, ok := users.Ord(uid)
			if !ok {
				return nil, fmt.Errorf("pixel: pixel %q's visitor %q is not one of the state's users", ps.ID, uid)
			}
			v.add(o)
		}
	}
	return r, nil
}
