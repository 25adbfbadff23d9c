// Package pixel implements the platform's tracking-pixel subsystem.
//
// An advertiser embeds a platform-issued pixel on pages of its own website;
// when a logged-in platform user visits such a page, the platform records
// the visit against the pixel. The advertiser can later target "everyone who
// visited a page carrying my pixel" — without ever learning who those users
// are (footnote 3 of the paper). This asymmetry is what lets users opt in to
// a transparency provider anonymously (§3.1, "User opt-in") and is the
// basis of per-attribute custom opt-in pages (§3.1, "Supporting custom
// attributes").
package pixel

import (
	"fmt"
	"sync"

	"github.com/treads-project/treads/internal/profile"
)

// PixelID identifies an issued tracking pixel.
type PixelID string

// Pixel is one tracking pixel issued to an advertiser.
type Pixel struct {
	ID         PixelID
	Advertiser string // advertiser account the pixel belongs to
}

// Registry issues pixels and records the visits the platform observes.
// It is the platform-side component: visit identities are stored here and
// are never returned to advertisers. Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	nextID int
	pixels map[PixelID]*Pixel
	visits map[PixelID]map[profile.UserID]bool
	order  map[PixelID][]profile.UserID // first-visit order for determinism
}

// NewRegistry returns an empty pixel registry.
func NewRegistry() *Registry {
	return &Registry{
		pixels: make(map[PixelID]*Pixel),
		visits: make(map[PixelID]map[profile.UserID]bool),
		order:  make(map[PixelID][]profile.UserID),
	}
}

// Issue creates a new pixel owned by the advertiser account.
func (r *Registry) Issue(advertiser string) *Pixel {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	p := &Pixel{
		ID:         PixelID(fmt.Sprintf("px-%06d", r.nextID)),
		Advertiser: advertiser,
	}
	r.pixels[p.ID] = p
	r.visits[p.ID] = make(map[profile.UserID]bool)
	return p
}

// Get returns the pixel with the given ID, or nil.
func (r *Registry) Get(id PixelID) *Pixel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pixels[id]
}

// RecordVisit records that the platform observed user visiting a page
// carrying the pixel. Unknown pixels are an error; repeat visits are
// idempotent.
func (r *Registry) RecordVisit(id PixelID, user profile.UserID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	set, ok := r.visits[id]
	if !ok {
		return fmt.Errorf("pixel: unknown pixel %q", id)
	}
	if !set[user] {
		set[user] = true
		r.order[id] = append(r.order[id], user)
	}
	return nil
}

// Visitors returns the users who fired the pixel, in first-visit order.
// This is platform-internal: audiences are built from it, but the
// advertiser-facing API never exposes it.
func (r *Registry) Visitors(id PixelID) []profile.UserID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]profile.UserID(nil), r.order[id]...)
}

// HasVisited reports whether the user has fired the pixel.
func (r *Registry) HasVisited(id PixelID, user profile.UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.visits[id][user]
}
