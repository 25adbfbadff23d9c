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
// are never returned to advertisers. A visitor is named by its ordinal in
// the node's profile store (profile.Profile.Ord); Snapshot and RestoreState
// turn ordinals into user IDs and back. Registry is safe for concurrent
// use.
type Registry struct {
	mu     sync.RWMutex
	nextID int
	pixels map[PixelID]*Pixel
	visits map[PixelID]*visitors
}

// visitors is one pixel's visitors: a bitmap over ordinals and the
// first-visit log. Both grow with the first visit, so an unvisited pixel
// holds neither.
type visitors struct {
	seen  []uint64 // bit o set once user o has fired the pixel
	order []uint32 // ordinals in first-visit order, for determinism
}

// add records a visit by user o; a repeat visit changes nothing.
func (v *visitors) add(o uint32) {
	if v.has(o) {
		return
	}
	w := int(o / 64)
	if w >= len(v.seen) {
		v.seen = append(v.seen, make([]uint64, w+1-len(v.seen))...)
	}
	v.seen[w] |= 1 << (o % 64)
	v.order = append(v.order, o)
}

// has reports whether user o has fired the pixel.
func (v *visitors) has(o uint32) bool {
	w := int(o / 64)
	return w < len(v.seen) && v.seen[w]&(1<<(o%64)) != 0
}

// NewRegistry returns an empty pixel registry.
func NewRegistry() *Registry {
	return &Registry{
		pixels: make(map[PixelID]*Pixel),
		visits: make(map[PixelID]*visitors),
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
	r.visits[p.ID] = &visitors{}
	return p
}

// Get returns the pixel with the given ID, or nil.
func (r *Registry) Get(id PixelID) *Pixel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pixels[id]
}

// RecordVisit records that the platform observed the user with the given
// ordinal visiting a page carrying the pixel. Unknown pixels are an error;
// repeat visits are idempotent.
func (r *Registry) RecordVisit(id PixelID, user uint32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.visits[id]
	if !ok {
		return fmt.Errorf("pixel: unknown pixel %q", id)
	}
	v.add(user)
	return nil
}

// Visitors returns the ordinals of the users who fired the pixel, in
// first-visit order. This is platform-internal: audiences are built from
// it, but the advertiser-facing API never exposes it.
func (r *Registry) Visitors(id PixelID) []uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v := r.visits[id]; v != nil {
		return append([]uint32(nil), v.order...)
	}
	return nil
}

// HasVisited reports whether the user with the given ordinal has fired the
// pixel.
func (r *Registry) HasVisited(id PixelID, user uint32) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := r.visits[id]
	return v != nil && v.has(user)
}
