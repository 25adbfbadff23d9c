// Package profile models the user profiles an advertising platform builds
// from on- and off-platform activity, and the store the platform keeps them
// in.
//
// A profile is the platform's belief about a user: demographics, the set of
// targeting attributes that hold for them (both platform-computed and
// data-broker sourced), the PII the platform has associated with the
// account, and the pages the user has liked. Profiles are what targeting
// expressions evaluate against and what Treads ultimately make transparent.
package profile

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
)

// UserID identifies a platform user.
type UserID string

// Watcher observes profile lifecycle and mutation events — the hook the
// inverted targeting index uses for incremental maintenance. A watcher is
// attached to a Store (and its existing profiles) with SetWatcher before
// concurrent traffic starts; thereafter every profile added to the store
// carries it.
//
// Callbacks are invoked after the mutation is applied and outside the
// profile's internal locks, so a watcher may freely read the profile or
// take its own locks.
type Watcher interface {
	// ProfileAdded fires after the profile is inserted into the store.
	ProfileAdded(p *Profile)
	// AttrChanged fires after SetAttr/SetAttrValue/SetSortedAttrs on a profile
	// that already has a watcher (i.e. post-Add mutations).
	AttrChanged(p *Profile, id attr.ID)
	// LikeChanged fires when a page like is added (liked=true) or removed
	// (liked=false); no-change calls are suppressed.
	LikeChanged(p *Profile, pageID string, liked bool)
}

// Profile is one user's platform-held profile. It implements attr.Subject.
// Demographic fields and attributes are written only before the profile is
// added to a Store; page likes are the one surface mutated by live user
// traffic, so they carry their own lock and Like/LikesPage/LikedPages are
// safe to call concurrently.
type Profile struct {
	ID     UserID
	AgeYrs int
	Sex    string
	Nation string // country code, e.g. "US"
	City   string
	// Lat/Lon are the platform's belief about the user's coordinates;
	// HasGeo marks whether the platform has located the user at all.
	Lat, Lon float64
	HasGeo   bool
	PII      pii.Record
	likesMu  sync.RWMutex
	likes    map[string]bool // page IDs the user has liked; nil until the first Like
	// The attribute sets are sorted slices, packed to length by Store.Add.
	// An ID may sit in both (set through SetAttr and SetAttrValue); it then
	// counts in both.
	binary  []attr.ID    // sorted
	values  []ValuedAttr // sorted by ID
	watcher Watcher      // set by Store.Add / Store.SetWatcher; nil before
}

// ValuedAttr is one categorical attribute's value.
type ValuedAttr struct {
	ID    attr.ID
	Value string
}

// New returns an empty profile for the given user.
func New(id UserID) *Profile {
	return &Profile{ID: id}
}

// findValue returns id's position in p.values, or where it would go.
func (p *Profile) findValue(id attr.ID) (int, bool) {
	return slices.BinarySearchFunc(p.values, id, func(v ValuedAttr, id attr.ID) int { return cmp.Compare(v.ID, id) })
}

// SetAttr marks a binary attribute as set for the user.
func (p *Profile) SetAttr(id attr.ID) {
	if i, ok := slices.BinarySearch(p.binary, id); !ok {
		p.binary = slices.Insert(p.binary, i, id)
	}
	if p.watcher != nil {
		p.watcher.AttrChanged(p, id)
	}
}

// SetAttrValue assigns a categorical attribute value.
func (p *Profile) SetAttrValue(id attr.ID, value string) {
	if i, ok := p.findValue(id); ok {
		p.values[i].Value = value
	} else {
		p.values = slices.Insert(p.values, i, ValuedAttr{id, value})
	}
	if p.watcher != nil {
		p.watcher.AttrChanged(p, id)
	}
}

// SetSortedAttrs does what SetAttr on every ID of binary and then
// SetAttrValue on every pair of values does, in one merge per set instead of
// a sorted insert per attribute: a repeated or already-set binary ID changes
// nothing, and of several values for one ID the last wins. Both slices must
// be sorted by ID. The generator builds each user's attributes this way.
func (p *Profile) SetSortedAttrs(binary []attr.ID, values []ValuedAttr) {
	if !slices.IsSorted(binary) || !slices.IsSortedFunc(values, func(a, b ValuedAttr) int { return cmp.Compare(a.ID, b.ID) }) {
		panic("profile: SetSortedAttrs given attributes out of ID order")
	}
	if len(binary) > 0 {
		p.binary = mergeSorted(p.binary, binary, func(id attr.ID) attr.ID { return id })
	}
	if len(values) > 0 {
		p.values = mergeSorted(p.values, values, func(v ValuedAttr) attr.ID { return v.ID })
	}
	if p.watcher != nil {
		for _, id := range binary {
			p.watcher.AttrChanged(p, id)
		}
		for _, v := range values {
			p.watcher.AttrChanged(p, v.ID)
		}
	}
}

// mergeSorted returns, in a new slice, the union of held (sorted, each ID
// once) and add (sorted, IDs may repeat), each ID once: where an ID repeats
// the last element of add for it wins.
func mergeSorted[T any](held, add []T, id func(T) attr.ID) []T {
	out := make([]T, 0, len(held)+len(add))
	for len(add) > 0 {
		k := id(add[0])
		for len(add) > 1 && id(add[1]) == k {
			add = add[1:]
		}
		for len(held) > 0 && id(held[0]) < k {
			out, held = append(out, held[0]), held[1:]
		}
		if len(held) > 0 && id(held[0]) == k {
			held = held[1:]
		}
		out, add = append(out, add[0]), add[1:]
	}
	return append(out, held...)
}

// HasAttr implements attr.Subject: true if the binary attribute is set or
// the categorical attribute has any value.
func (p *Profile) HasAttr(id attr.ID) bool {
	if _, ok := slices.BinarySearch(p.binary, id); ok {
		return true
	}
	_, ok := p.findValue(id)
	return ok
}

// AttrValue implements attr.Subject.
func (p *Profile) AttrValue(id attr.ID) (string, bool) {
	if i, ok := p.findValue(id); ok {
		return p.values[i].Value, true
	}
	return "", false
}

// Age implements attr.Subject.
func (p *Profile) Age() int { return p.AgeYrs }

// Gender implements attr.Subject.
func (p *Profile) Gender() string { return p.Sex }

// Country implements attr.Subject.
func (p *Profile) Country() string { return p.Nation }

// Region implements attr.Subject.
func (p *Profile) Region() string { return p.City }

// LatLon implements attr.GeoSubject.
func (p *Profile) LatLon() (float64, float64, bool) { return p.Lat, p.Lon, p.HasGeo }

// SetLocation records the platform's belief about the user's coordinates.
func (p *Profile) SetLocation(lat, lon float64) {
	p.Lat, p.Lon, p.HasGeo = lat, lon, true
}

var _ attr.GeoSubject = (*Profile)(nil)

// Attrs returns all set attribute IDs (binary and categorical), sorted: a
// merge of the two sorted sets, so an ID in both is listed twice.
func (p *Profile) Attrs() []attr.ID {
	out := make([]attr.ID, 0, len(p.binary)+len(p.values))
	b, v := p.binary, p.values
	for len(b) > 0 && len(v) > 0 {
		if b[0] <= v[0].ID {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, v = append(out, v[0].ID), v[1:]
		}
	}
	out = append(out, b...)
	for _, av := range v {
		out = append(out, av.ID)
	}
	return out
}

// EachAttr calls fn for every set attribute ID, in no particular order and
// without allocating — the walk the delivery pipeline's campaign index does
// once per browse.
func (p *Profile) EachAttr(fn func(attr.ID)) {
	for _, id := range p.binary {
		fn(id)
	}
	for _, av := range p.values {
		fn(av.ID)
	}
}

// pack trims both attribute sets to exact length, so a profile the store
// holds carries no growth slack from the inserts that built it.
func (p *Profile) pack() {
	p.binary = exact(p.binary)
	p.values = exact(p.values)
}

// exact returns s in a backing array of its own length (nil when empty).
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// AttrCount returns the number of set attributes.
func (p *Profile) AttrCount() int { return len(p.binary) + len(p.values) }

// Like records that the user likes the given page.
func (p *Profile) Like(pageID string) {
	p.likesMu.Lock()
	changed := !p.likes[pageID]
	if p.likes == nil {
		p.likes = make(map[string]bool)
	}
	p.likes[pageID] = true
	p.likesMu.Unlock()
	// Notify outside likesMu: the watcher takes its own lock, and an
	// in-flight index Add holds that lock while reading LikedPages.
	if changed && p.watcher != nil {
		p.watcher.LikeChanged(p, pageID, true)
	}
}

// Unlike removes a page like. Unliking a page the user never liked is a
// no-op.
func (p *Profile) Unlike(pageID string) {
	p.likesMu.Lock()
	changed := p.likes[pageID]
	delete(p.likes, pageID)
	p.likesMu.Unlock()
	if changed && p.watcher != nil {
		p.watcher.LikeChanged(p, pageID, false)
	}
}

// LikesPage reports whether the user likes the page.
func (p *Profile) LikesPage(pageID string) bool {
	p.likesMu.RLock()
	defer p.likesMu.RUnlock()
	return p.likes[pageID]
}

// LikedPages returns the pages the user likes, sorted.
func (p *Profile) LikedPages() []string {
	p.likesMu.RLock()
	out := make([]string, 0, len(p.likes))
	for page := range p.likes {
		out = append(out, page)
	}
	p.likesMu.RUnlock()
	sort.Strings(out)
	return out
}

var _ attr.Subject = (*Profile)(nil)

// Store is the platform's profile database: profiles indexed by user ID.
// Store is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	profiles map[UserID]*Profile
	order    []UserID // insertion order, for deterministic iteration
	watcher  Watcher
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{
		profiles: make(map[UserID]*Profile),
	}
}

// SetWatcher attaches a watcher to the store and to every profile already
// in it. Call before concurrent traffic starts (the watcher pointer itself
// is read without synchronization on mutation paths); the index is wired
// this way during platform construction and restore.
func (s *Store) SetWatcher(w Watcher) {
	s.mu.Lock()
	s.watcher = w
	ids := append([]UserID(nil), s.order...)
	profiles := make([]*Profile, 0, len(ids))
	for _, id := range ids {
		p := s.profiles[id]
		p.watcher = w
		profiles = append(profiles, p)
	}
	s.mu.Unlock()
	if w != nil {
		for _, p := range profiles {
			w.ProfileAdded(p)
		}
	}
}

// Add inserts a profile. Adding a duplicate user ID is an error.
func (s *Store) Add(p *Profile) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("profile: nil profile or empty user ID")
	}
	s.mu.Lock()
	if _, dup := s.profiles[p.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("profile: duplicate user %q", p.ID)
	}
	p.watcher = s.watcher // before publication, so no reader races it
	p.pack()
	s.profiles[p.ID] = p
	s.order = append(s.order, p.ID)
	w := s.watcher
	s.mu.Unlock()
	if w != nil {
		w.ProfileAdded(p)
	}
	return nil
}

// Get returns the profile for the user, or nil.
func (s *Store) Get(id UserID) *Profile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.profiles[id]
}

// Len returns the number of profiles.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.profiles)
}

// UserIDs returns every user ID in insertion order.
func (s *Store) UserIDs() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]UserID(nil), s.order...)
}

// Each calls fn for every profile in insertion order. fn must not mutate
// the store.
func (s *Store) Each(fn func(*Profile)) {
	s.mu.RLock()
	ids := append([]UserID(nil), s.order...)
	s.mu.RUnlock()
	for _, id := range ids {
		s.mu.RLock()
		p := s.profiles[id]
		s.mu.RUnlock()
		if p != nil {
			fn(p)
		}
	}
}
