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
	"math"
	"slices"
	"strings"
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
	// that already has a watcher (i.e. post-Add mutations), with the changed
	// attribute's ordinal in attr's ID table.
	AttrChanged(p *Profile, o attr.Ord)
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
	// ord is the profile's ordinal in the Store that holds it; see Ord.
	ord     uint32
	PII     pii.Record
	likesMu sync.RWMutex
	likes   []string // page IDs the user has liked, sorted; nil until the first Like
	// The attribute sets hold ordinals in attr's ID table, sorted by the ID
	// each names (not by ordinal), packed to length by Store.Add. An ID may
	// sit in both (set through SetAttr and SetAttrValue); it then counts in
	// both.
	binary  []attr.Ord   // sorted by ID
	values  []ValuedAttr // sorted by ID
	watcher Watcher      // set by Store.Add / Store.SetWatcher; nil before
}

// ValuedAttr is one categorical attribute's value, the attribute named by
// its ordinal in attr's ID table.
type ValuedAttr struct {
	Ord   attr.Ord
	Value string
}

// New returns an empty profile for the given user.
func New(id UserID) *Profile {
	return &Profile{ID: id}
}

// compareID orders ordinal o against id by the ID o names in ids, the ID
// table.
func compareID(ids []attr.ID, o attr.Ord, id attr.ID) int {
	return strings.Compare(string(ids[o]), string(id))
}

// byID orders two ordinals by the IDs they name in ids.
func byID(ids []attr.ID, a, b attr.Ord) int { return compareID(ids, a, ids[b]) }

// findBinary returns id's position in p.binary, or where it would go; ids
// is the ID table. It compares through the table, so an ID that was never
// interned is simply absent.
func (p *Profile) findBinary(ids []attr.ID, id attr.ID) (int, bool) {
	return slices.BinarySearchFunc(p.binary, id, func(o attr.Ord, id attr.ID) int { return compareID(ids, o, id) })
}

// findValue returns id's position in p.values, or where it would go.
func (p *Profile) findValue(ids []attr.ID, id attr.ID) (int, bool) {
	return slices.BinarySearchFunc(p.values, id, func(v ValuedAttr, id attr.ID) int { return compareID(ids, v.Ord, id) })
}

// SetAttr marks a binary attribute as set for the user.
func (p *Profile) SetAttr(id attr.ID) {
	o := attr.Intern(id)
	if i, ok := p.findBinary(attr.IDs(), id); !ok {
		p.binary = slices.Insert(p.binary, i, o)
	}
	if p.watcher != nil {
		p.watcher.AttrChanged(p, o)
	}
}

// SetAttrValue assigns a categorical attribute value.
func (p *Profile) SetAttrValue(id attr.ID, value string) {
	o := attr.Intern(id)
	if i, ok := p.findValue(attr.IDs(), id); ok {
		p.values[i].Value = value
	} else {
		p.values = slices.Insert(p.values, i, ValuedAttr{o, value})
	}
	if p.watcher != nil {
		p.watcher.AttrChanged(p, o)
	}
}

// SetSortedAttrs does what SetAttr on every ID of binary and then
// SetAttrValue on every pair of values does, in one pass per set instead of
// a sorted insert per attribute: a repeated or already-set binary ID changes
// nothing, and of several values for one ID the last wins. Both slices hold
// interned ordinals and must be sorted by the IDs they name, which it checks
// through attr's rank table. The generator builds each user's attributes
// this way, on a profile that holds none yet.
func (p *Profile) SetSortedAttrs(binary []attr.Ord, values []ValuedAttr) {
	rank := attr.Ranks()
	if !slices.IsSortedFunc(binary, func(a, b attr.Ord) int { return cmp.Compare(rank[a], rank[b]) }) ||
		!slices.IsSortedFunc(values, func(a, b ValuedAttr) int { return cmp.Compare(rank[a.Ord], rank[b.Ord]) }) {
		panic("profile: SetSortedAttrs given attributes out of ID order")
	}
	// On a profile that holds no attributes yet, which is every generated
	// user, each set is a copy less its repeats: the result mergeSorted
	// gives, without its call through ord per element, which made a
	// 12 000-user BenchmarkBootSingle about 35 instead of 31 ms (medians of
	// 18 alternating runs each on a 2-vCPU box).
	switch {
	case len(binary) == 0:
	case len(p.binary) == 0:
		// Not slices.Clone, whose capacity is rounded up to the allocator's
		// size class: one of exact length is the one pack keeps.
		p.binary = slices.Compact(append(make([]attr.Ord, 0, len(binary)), binary...))
	default:
		p.binary = mergeSorted(rank, p.binary, binary, func(o attr.Ord) attr.Ord { return o })
	}
	switch {
	case len(values) == 0:
	case len(p.values) == 0:
		p.values = make([]ValuedAttr, 0, len(values))
		for i, v := range values {
			if i+1 == len(values) || values[i+1].Ord != v.Ord {
				p.values = append(p.values, v) // the last of a repeated ID
			}
		}
	default:
		p.values = mergeSorted(rank, p.values, values, func(v ValuedAttr) attr.Ord { return v.Ord })
	}
	if p.watcher != nil {
		for _, o := range binary {
			p.watcher.AttrChanged(p, o)
		}
		for _, v := range values {
			p.watcher.AttrChanged(p, v.Ord)
		}
	}
}

// mergeSorted returns, in a new slice, the union of held (sorted by ID, each
// ID once) and add (sorted by ID, IDs may repeat), each ID once: where an ID
// repeats the last element of add for it wins. rank is attr's rank table.
func mergeSorted[T any](rank []uint32, held, add []T, ord func(T) attr.Ord) []T {
	out := make([]T, 0, len(held)+len(add))
	for len(add) > 0 {
		k := ord(add[0])
		for len(add) > 1 && ord(add[1]) == k {
			add = add[1:]
		}
		for len(held) > 0 && rank[ord(held[0])] < rank[k] {
			out, held = append(out, held[0]), held[1:]
		}
		if len(held) > 0 && ord(held[0]) == k {
			held = held[1:]
		}
		out, add = append(out, add[0]), add[1:]
	}
	return append(out, held...)
}

// HasAttr implements attr.Subject: true if the binary attribute is set or
// the categorical attribute has any value. It neither interns nor
// allocates.
func (p *Profile) HasAttr(id attr.ID) bool {
	ids := attr.IDs()
	if _, ok := p.findBinary(ids, id); ok {
		return true
	}
	_, ok := p.findValue(ids, id)
	return ok
}

// AttrValue implements attr.Subject. It neither interns nor allocates.
func (p *Profile) AttrValue(id attr.ID) (string, bool) {
	if i, ok := p.findValue(attr.IDs(), id); ok {
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
	ids := attr.IDs()
	out := make([]attr.ID, 0, len(p.binary)+len(p.values))
	b, v := p.binary, p.values
	for len(b) > 0 && len(v) > 0 {
		if byID(ids, b[0], v[0].Ord) <= 0 {
			out, b = append(out, ids[b[0]]), b[1:]
		} else {
			out, v = append(out, ids[v[0].Ord]), v[1:]
		}
	}
	for _, o := range b {
		out = append(out, ids[o])
	}
	for _, av := range v {
		out = append(out, ids[av.Ord])
	}
	return out
}

// EachAttr calls fn for every set attribute ID, in no particular order and
// without allocating — the walk the delivery pipeline's campaign index does
// once per browse.
func (p *Profile) EachAttr(fn func(attr.ID)) {
	ids := attr.IDs()
	for _, o := range p.binary {
		fn(ids[o])
	}
	for _, av := range p.values {
		fn(ids[av.Ord])
	}
}

// AttrOrds returns the profile's two attribute sets as it holds them: the
// binary attributes' ordinals and the categorical attributes' ordinals with
// their values, each sorted by ID — the walk the targeting index makes to
// reach posting lists by ordinal. The slices are the profile's own; callers
// must not modify them.
func (p *Profile) AttrOrds() ([]attr.Ord, []ValuedAttr) { return p.binary, p.values }

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
	i, liked := slices.BinarySearch(p.likes, pageID)
	if !liked {
		p.likes = slices.Insert(p.likes, i, pageID)
	}
	p.likesMu.Unlock()
	// Notify outside likesMu: the watcher takes its own lock, and an
	// in-flight index Add holds that lock while reading LikedPages.
	if !liked && p.watcher != nil {
		p.watcher.LikeChanged(p, pageID, true)
	}
}

// Unlike removes a page like. Unliking a page the user never liked is a
// no-op.
func (p *Profile) Unlike(pageID string) {
	p.likesMu.Lock()
	i, liked := slices.BinarySearch(p.likes, pageID)
	if liked {
		p.likes = slices.Delete(p.likes, i, i+1)
	}
	p.likesMu.Unlock()
	if liked && p.watcher != nil {
		p.watcher.LikeChanged(p, pageID, false)
	}
}

// LikesPage reports whether the user likes the page.
func (p *Profile) LikesPage(pageID string) bool {
	p.likesMu.RLock()
	defer p.likesMu.RUnlock()
	_, liked := slices.BinarySearch(p.likes, pageID)
	return liked
}

// LikedPages returns the pages the user likes, sorted.
func (p *Profile) LikedPages() []string {
	p.likesMu.RLock()
	defer p.likesMu.RUnlock()
	return append(make([]string, 0, len(p.likes)), p.likes...)
}

var _ attr.Subject = (*Profile)(nil)

// Ord returns the profile's ordinal: its position in the insertion order of
// the Store that holds it, assigned once by Store.Add and never reused,
// since a store never removes a profile. It is the one per-user key a node
// keeps beside the store: the targeting index's bit, delivery's record,
// a pixel's visitor and a billing row all name a user by it. A profile no
// store holds reads 0; Store.OrdOf tells the two apart.
func (p *Profile) Ord() uint32 { return p.ord }

// Store is the platform's profile database: profiles by ordinal, and the
// one map from user ID to ordinal. Store is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	profiles []*Profile        // by ordinal, which is insertion order
	ords     map[UserID]uint32 // user -> ordinal
	sizeHint int               // the profiles NewSizedStore was told to expect
	watcher  Watcher
	pages    map[string]string // the one copy of every liked page ID
}

// NewStore returns an empty profile store.
func NewStore() *Store { return NewSizedStore(0) }

// NewSizedStore returns an empty profile store whose tables hold sizeHint
// profiles before they grow.
func NewSizedStore(sizeHint int) *Store {
	sizeHint = max(sizeHint, 0)
	return &Store{
		profiles: make([]*Profile, 0, sizeHint),
		ords:     make(map[UserID]uint32, sizeHint),
		sizeHint: sizeHint,
		pages:    make(map[string]string),
	}
}

// SetWatcher attaches a watcher to the store and to every profile already
// in it. Call before concurrent traffic starts (the watcher pointer itself
// is read without synchronization on mutation paths); the index is wired
// this way during platform construction and restore.
func (s *Store) SetWatcher(w Watcher) {
	s.mu.Lock()
	s.watcher = w
	profiles := s.profiles
	for _, p := range profiles {
		p.watcher = w
	}
	s.mu.Unlock()
	if w != nil {
		for _, p := range profiles {
			w.ProfileAdded(p)
		}
	}
}

// Add inserts a profile and gives it the next ordinal. Adding a duplicate
// user ID is an error. The pages the profile already likes are replaced by
// the store's copies of their IDs (see Page).
func (s *Store) Add(p *Profile) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("profile: nil profile or empty user ID")
	}
	s.mu.Lock()
	if _, dup := s.ords[p.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("profile: duplicate user %q", p.ID)
	}
	if uint64(len(s.profiles)) > math.MaxUint32 {
		s.mu.Unlock()
		return fmt.Errorf("profile: user %q would be number %d, past the last ordinal %d", p.ID, len(s.profiles), uint32(math.MaxUint32))
	}
	// Before publication, so no reader races these writes.
	p.watcher = s.watcher
	p.ord = uint32(len(s.profiles))
	p.pack()
	for i, page := range p.likes {
		p.likes[i] = s.pageLocked(page)
	}
	s.ords[p.ID] = p.ord
	s.profiles = append(s.profiles, p)
	w := s.watcher
	s.mu.Unlock()
	if w != nil {
		w.ProfileAdded(p)
	}
	return nil
}

// Page returns the store's copy of a page ID, first making one (a copy of
// its own, so that no caller's buffer is kept) if the store has none. A
// like stored through it shares one string with every other like of the
// page, where each like would otherwise keep the string its request was
// decoded into.
func (s *Store) Page(id string) string {
	s.mu.RLock()
	page, ok := s.pages[id]
	s.mu.RUnlock()
	if ok {
		return page
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pageLocked(id)
}

// pageLocked is Page under the write lock.
func (s *Store) pageLocked(id string) string {
	page, ok := s.pages[id]
	if !ok {
		page = strings.Clone(id)
		s.pages[page] = page
	}
	return page
}

// Get returns the profile for the user, or nil.
func (s *Store) Get(id UserID) *Profile {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.ords[id]; ok {
		return s.profiles[o]
	}
	return nil
}

// Ord returns the user's ordinal; ok is false when the store does not hold
// the user.
func (s *Store) Ord(id UserID) (o uint32, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok = s.ords[id]
	return o, ok
}

// OrdOf returns p's ordinal; ok is false when the store does not hold p
// itself — a profile of another store, or none, may carry any ordinal.
func (s *Store) OrdOf(p *Profile) (o uint32, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o = p.ord
	return o, int(o) < len(s.profiles) && s.profiles[o] == p
}

// SizeHint returns how many profiles the store expects: the size hint it
// was made with, or Len once it holds more.
func (s *Store) SizeHint() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return max(s.sizeHint, len(s.profiles))
}

// Len returns the number of profiles.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.profiles)
}

// UserIDs returns every user ID in insertion order, so a user's ordinal is
// its position in the result.
func (s *Store) UserIDs() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UserID, len(s.profiles))
	for i, p := range s.profiles {
		out[i] = p.ID
	}
	return out
}

// Each calls fn for every profile in insertion order. fn must not mutate
// the store. The profiles are those held when Each was called: Add only
// appends, so the prefix read here is never written again.
func (s *Store) Each(fn func(*Profile)) {
	s.mu.RLock()
	profiles := s.profiles
	s.mu.RUnlock()
	for _, p := range profiles {
		fn(p)
	}
}
