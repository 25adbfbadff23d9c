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
	"sync/atomic"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
)

// UserID identifies a platform user.
type UserID string

// Watcher observes profile lifecycle and mutation events — the hook the
// inverted targeting index uses for incremental maintenance. A watcher is
// attached to a Store with SetWatcher before concurrent traffic starts; it
// then hears of every profile the store holds.
//
// Callbacks are invoked after the mutation is applied and outside the
// profile's internal locks, so a watcher may freely read the profile or
// take its own locks.
type Watcher interface {
	// ProfileAdded fires after the profile is inserted into the store.
	ProfileAdded(p *Profile)
	// AttrChanged fires after SetAttr/SetAttrValue/SetSortedAttrs on a profile
	// the store holds (i.e. post-Add mutations), with the changed attribute's
	// ordinal in attr's ID table.
	AttrChanged(p *Profile, o attr.Ord)
	// LikeChanged fires when a page like is added (liked=true) or removed
	// (liked=false); no-change calls are suppressed.
	LikeChanged(p *Profile, pageID string, liked bool)
}

// Profile is one user's platform-held profile. It implements attr.Subject.
// Demographic fields and attributes are written only before the profile is
// added to a Store; page likes are the one surface mutated by live user
// traffic, so they are under a lock and Like/LikesPage/LikedPages are safe
// to call concurrently.
//
// A store holds one Profile per user, so what every profile would repeat
// lives elsewhere: nation and city are codes in a process-wide table of
// places, the watcher and the likes' lock are the store's, and the fields
// most users leave empty (likes, categorical values) sit in an object
// allocated on first use. TestProfileSize holds it to 128 bytes.
type Profile struct {
	ID  UserID
	Sex string
	// Lat/Lon are the platform's belief about the user's coordinates;
	// HasGeo marks whether the platform has located the user at all.
	Lat, Lon float64
	// ord is the profile's ordinal in the Store that holds it; see Ord.
	ord uint32
	// nation and city are codes in the place table; see SetCountry.
	nation, city uint32
	// AgeYrs is the user's age in years; FromState refuses one it cannot
	// hold (ErrAgeOutOfRange).
	AgeYrs uint8
	HasGeo bool
	// pii holds the user's emails and then their phones in one backing
	// array: the emails are the slice, the phones the rest of its capacity.
	// See PII.
	pii []string
	// binary holds ordinals in attr's ID table, sorted by the ID each names
	// (not by ordinal), packed to length by Store.Add. An ID may also sit in
	// the categorical values (set through SetAttr and SetAttrValue); it then
	// counts in both.
	binary []attr.Ord
	// rare is nil until the first like or categorical value.
	rare atomic.Pointer[rare]
	// store is the Store that holds the profile, nil before Store.Add.
	store *Store
}

// rare holds what most profiles leave empty.
type rare struct {
	likes  []string     // page IDs the user has liked, sorted; under the likes lock
	values []ValuedAttr // sorted by ID, as binary is
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

// watcher returns the watcher of the store that holds p, or nil.
func (p *Profile) watcher() Watcher {
	if p.store == nil {
		return nil
	}
	return p.store.watcher
}

// values returns p's categorical attributes.
func (p *Profile) values() []ValuedAttr {
	if r := p.rare.Load(); r != nil {
		return r.values
	}
	return nil
}

// rareFields returns p's rare fields, allocating them on first use. A like
// (under the likes lock) and an attribute write (under none) may race to
// allocate; the first to publish wins.
func (p *Profile) rareFields() *rare {
	if r := p.rare.Load(); r != nil {
		return r
	}
	p.rare.CompareAndSwap(nil, new(rare))
	return p.rare.Load()
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

// findValue returns id's position in values, or where it would go.
func findValue(values []ValuedAttr, ids []attr.ID, id attr.ID) (int, bool) {
	return slices.BinarySearchFunc(values, id, func(v ValuedAttr, id attr.ID) int { return compareID(ids, v.Ord, id) })
}

// SetAttr marks a binary attribute as set for the user.
func (p *Profile) SetAttr(id attr.ID) {
	o := attr.Intern(id)
	if i, ok := p.findBinary(attr.IDs(), id); !ok {
		p.binary = slices.Insert(p.binary, i, o)
	}
	if w := p.watcher(); w != nil {
		w.AttrChanged(p, o)
	}
}

// SetAttrValue assigns a categorical attribute value.
func (p *Profile) SetAttrValue(id attr.ID, value string) {
	o := attr.Intern(id)
	r := p.rareFields()
	if i, ok := findValue(r.values, attr.IDs(), id); ok {
		r.values[i].Value = value
	} else {
		r.values = slices.Insert(r.values, i, ValuedAttr{o, value})
	}
	if w := p.watcher(); w != nil {
		w.AttrChanged(p, o)
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
	if len(values) > 0 {
		r := p.rareFields()
		if len(r.values) == 0 {
			r.values = make([]ValuedAttr, 0, len(values))
			for i, v := range values {
				if i+1 == len(values) || values[i+1].Ord != v.Ord {
					r.values = append(r.values, v) // the last of a repeated ID
				}
			}
		} else {
			r.values = mergeSorted(rank, r.values, values, func(v ValuedAttr) attr.Ord { return v.Ord })
		}
	}
	if w := p.watcher(); w != nil {
		for _, o := range binary {
			w.AttrChanged(p, o)
		}
		for _, v := range values {
			w.AttrChanged(p, v.Ord)
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
	_, ok := findValue(p.values(), ids, id)
	return ok
}

// AttrValue implements attr.Subject. It neither interns nor allocates.
func (p *Profile) AttrValue(id attr.ID) (string, bool) {
	values := p.values()
	if i, ok := findValue(values, attr.IDs(), id); ok {
		return values[i].Value, true
	}
	return "", false
}

// Age implements attr.Subject.
func (p *Profile) Age() int { return int(p.AgeYrs) }

// Gender implements attr.Subject.
func (p *Profile) Gender() string { return p.Sex }

// Country implements attr.Subject: the user's nation, a country code such
// as "US".
func (p *Profile) Country() string { return place(p.nation) }

// Region implements attr.Subject: the user's city.
func (p *Profile) Region() string { return place(p.city) }

// SetCountry records the user's nation.
func (p *Profile) SetCountry(nation string) { p.nation = placeCode(nation) }

// SetRegion records the user's city.
func (p *Profile) SetRegion(city string) { p.city = placeCode(city) }

// LatLon implements attr.GeoSubject.
func (p *Profile) LatLon() (float64, float64, bool) { return p.Lat, p.Lon, p.HasGeo }

// SetLocation records the platform's belief about the user's coordinates.
func (p *Profile) SetLocation(lat, lon float64) {
	p.Lat, p.Lon, p.HasGeo = lat, lon, true
}

var _ attr.GeoSubject = (*Profile)(nil)

// PII returns the PII the platform holds for the user, as a view of the
// profile's own lists, which callers must not modify. It does not allocate.
func (p *Profile) PII() pii.Record {
	n := len(p.pii)
	return pii.Record{Emails: p.pii[:n:n], Phones: p.pii[n:cap(p.pii)]}
}

// SetPII records the PII the platform holds for the user: a copy of r's
// lists, the emails and then the phones in one backing array of exact
// length.
func (p *Profile) SetPII(r pii.Record) {
	n := len(r.Emails) + len(r.Phones)
	if n == 0 {
		p.pii = nil
		return
	}
	all := append(append(make([]string, 0, n), r.Emails...), r.Phones...)
	p.pii = all[:len(r.Emails)]
}

// The place table is the process-wide table nation and city codes index:
// names[c] is code c's place, names[0] is "", and a place is added the
// first time a profile is given it. Reads load the published slice without
// a lock.
var (
	placeMu    sync.Mutex
	placeCodes = map[string]uint32{"": 0}
	placeNames atomic.Pointer[[]string]
)

func init() { placeNames.Store(&[]string{""}) }

// place returns the name of a place code.
func place(code uint32) string { return (*placeNames.Load())[code] }

// placeCode returns name's place code, adding a copy of name to the table
// if it is not there.
func placeCode(name string) uint32 {
	placeMu.Lock()
	defer placeMu.Unlock()
	c, ok := placeCodes[name]
	if !ok {
		name = strings.Clone(name)
		// An append within capacity writes past every published length,
		// which no reader indexes; placeNames.Store publishes the element
		// with the length.
		names := append(*placeNames.Load(), name)
		c = uint32(len(names) - 1)
		placeNames.Store(&names)
		placeCodes[name] = c
	}
	return c
}

// Attrs returns all set attribute IDs (binary and categorical), sorted: a
// merge of the two sorted sets, so an ID in both is listed twice.
func (p *Profile) Attrs() []attr.ID {
	ids := attr.IDs()
	b, v := p.binary, p.values()
	out := make([]attr.ID, 0, len(b)+len(v))
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
	for _, av := range p.values() {
		fn(ids[av.Ord])
	}
}

// AttrOrds returns the profile's two attribute sets as it holds them: the
// binary attributes' ordinals and the categorical attributes' ordinals with
// their values, each sorted by ID — the walk the targeting index makes to
// reach posting lists by ordinal. The slices are the profile's own; callers
// must not modify them.
func (p *Profile) AttrOrds() ([]attr.Ord, []ValuedAttr) { return p.binary, p.values() }

// pack trims both attribute sets to exact length, so a profile the store
// holds carries no growth slack from the inserts that built it.
func (p *Profile) pack() {
	p.binary = exact(p.binary)
	if r := p.rare.Load(); r != nil {
		r.values = exact(r.values)
	}
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
func (p *Profile) AttrCount() int { return len(p.binary) + len(p.values()) }

// unstoredLikes is the likes lock of every profile no store holds.
var unstoredLikes sync.RWMutex

// likesLock returns the lock p's likes are under: its stripe of the
// store's locks, or unstoredLikes before Store.Add.
func (p *Profile) likesLock() *sync.RWMutex {
	if p.store == nil {
		return &unstoredLikes
	}
	return &p.store.likes[p.ord%likeStripes]
}

// Like records that the user likes the given page. A profile a store holds
// keeps the store's one copy of the page ID (see Store.page), not the
// caller's string.
func (p *Profile) Like(pageID string) {
	if p.store != nil {
		pageID = p.store.page(pageID)
	}
	mu := p.likesLock()
	mu.Lock()
	r := p.rareFields()
	i, liked := slices.BinarySearch(r.likes, pageID)
	if !liked {
		r.likes = slices.Insert(r.likes, i, pageID)
	}
	mu.Unlock()
	// Notify outside the likes lock: the watcher takes its own lock, and an
	// in-flight index Add holds that lock while reading LikedPages.
	if w := p.watcher(); !liked && w != nil {
		w.LikeChanged(p, pageID, true)
	}
}

// Unlike removes a page like. Unliking a page the user never liked is a
// no-op.
func (p *Profile) Unlike(pageID string) {
	mu := p.likesLock()
	mu.Lock()
	likes := p.likes()
	i, liked := slices.BinarySearch(likes, pageID)
	if liked {
		p.rare.Load().likes = slices.Delete(likes, i, i+1)
	}
	mu.Unlock()
	if w := p.watcher(); liked && w != nil {
		w.LikeChanged(p, pageID, false)
	}
}

// likes returns p's liked pages; the caller holds the likes lock.
func (p *Profile) likes() []string {
	if r := p.rare.Load(); r != nil {
		return r.likes
	}
	return nil
}

// LikesPage reports whether the user likes the page.
func (p *Profile) LikesPage(pageID string) bool {
	mu := p.likesLock()
	mu.RLock()
	defer mu.RUnlock()
	_, liked := slices.BinarySearch(p.likes(), pageID)
	return liked
}

// LikedPages returns the pages the user likes, sorted.
func (p *Profile) LikedPages() []string {
	mu := p.likesLock()
	mu.RLock()
	defer mu.RUnlock()
	likes := p.likes()
	return append(make([]string, 0, len(likes)), likes...)
}

var _ attr.Subject = (*Profile)(nil)

// Ord returns the profile's ordinal: its position in the insertion order of
// the Store that holds it, assigned once by Store.Add and never reused,
// since a store never removes a profile. It is the one per-user key a node
// keeps beside the store: the targeting index's bit, delivery's record,
// a pixel's visitor and a billing row all name a user by it. A profile no
// store holds reads 0; Store.OrdOf tells the two apart.
func (p *Profile) Ord() uint32 { return p.ord }

// likeStripes is how many locks a store's profiles' likes are spread over,
// by ordinal.
const likeStripes = 64

// Store is the platform's profile database: profiles by ordinal, and the
// one map from user ID to ordinal. It holds what its profiles share: the
// watcher, the locks of their likes and the one copy of each liked page
// ID. Store is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	profiles []*Profile        // by ordinal, which is insertion order
	ords     map[UserID]uint32 // user -> ordinal
	sizeHint int               // the profiles NewSizedStore was told to expect
	watcher  Watcher
	pages    map[string]string // the one copy of every liked page ID
	likes    [likeStripes]sync.RWMutex
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

// SetWatcher attaches a watcher to the store, and so to every profile it
// holds, and replays ProfileAdded for those already in it. Call before
// concurrent traffic starts (the watcher is read without synchronization
// on mutation paths); the index is wired this way during platform
// construction and restore.
func (s *Store) SetWatcher(w Watcher) {
	s.mu.Lock()
	s.watcher = w
	profiles := s.profiles
	s.mu.Unlock()
	if w != nil {
		for _, p := range profiles {
			w.ProfileAdded(p)
		}
	}
}

// Add inserts a profile and gives it the next ordinal; the store holds p
// itself, so Get(p.ID) == p. Adding a duplicate user ID is an error. The
// pages the profile already likes are replaced by the store's copies of
// their IDs (see page).
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
	p.store = s
	p.ord = uint32(len(s.profiles))
	p.pack()
	likes := p.likes()
	for i, page := range likes {
		likes[i] = s.pageLocked(page)
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

// page returns the store's copy of a page ID, first making one (a copy of
// its own, so that no caller's buffer is kept) if the store has none. A
// like stored through it shares one string with every other like of the
// page, where each like would otherwise keep the string its request was
// decoded into.
func (s *Store) page(id string) string {
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

// pageLocked is page under the write lock.
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
// Store.Add sets both before it publishes p, so no lock is needed.
func (s *Store) OrdOf(p *Profile) (o uint32, ok bool) {
	return p.ord, p.store == s
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
