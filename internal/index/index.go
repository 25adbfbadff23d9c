package index

import (
	"fmt"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

// Options tunes an Index.
type Options struct {
	// SizeHint pre-sizes slot tables for the expected population.
	SizeHint int
}

// Index is the inverted targeting index over one shard's users. Every user
// added is assigned a dense uint32 slot in insertion order; every targeting
// attribute, categorical value, demographic value, and liked page maps to a
// Bitmap of the slots holding it. Boolean targeting expressions compile
// into word-streamed plans over those bitmaps (node.go).
//
// Index is safe for concurrent use: queries take a read lock, and all
// mutation — user adds, attribute changes, likes, audience-bitmap bits —
// funnels through the write lock, so a query always sees a consistent
// point-in-time population.
type Index struct {
	mu   sync.RWMutex
	uids []profile.UserID          // slot -> user, insertion order
	slot map[profile.UserID]uint32 // user -> slot

	has       map[attr.ID]*Bitmap            // HasAttr posting lists
	vals      map[attr.ID]map[string]*Bitmap // ValueIs posting lists
	ages      map[int]*Bitmap
	genders   map[string]*Bitmap
	countries map[string]*Bitmap
	regions   map[string]*Bitmap
	likes     map[string]*Bitmap // liked page -> likers
}

// New returns an empty index.
func New(opts Options) *Index {
	hint := opts.SizeHint
	if hint < 0 {
		hint = 0
	}
	return &Index{
		uids:      make([]profile.UserID, 0, hint),
		slot:      make(map[profile.UserID]uint32, hint),
		has:       make(map[attr.ID]*Bitmap),
		vals:      make(map[attr.ID]map[string]*Bitmap),
		ages:      make(map[int]*Bitmap),
		genders:   make(map[string]*Bitmap),
		countries: make(map[string]*Bitmap),
		regions:   make(map[string]*Bitmap),
		likes:     make(map[string]*Bitmap),
	}
}

// Source is the profile iteration surface BuildFrom consumes;
// *profile.Store satisfies it.
type Source interface {
	Each(func(*profile.Profile))
}

// BuildFrom bulk-loads every profile from the source in iteration order
// (which for *profile.Store is insertion order, keeping slot order equal to
// store order). It records the build duration in index_build_seconds.
func (x *Index) BuildFrom(src Source) error {
	t0 := time.Now()
	var firstErr error
	src.Each(func(p *profile.Profile) {
		if firstErr != nil {
			return
		}
		if err := x.Add(p); err != nil {
			firstErr = err
		}
	})
	buildSeconds.ObserveSince(t0)
	x.RefreshMemoryGauge()
	return firstErr
}

// Add assigns the next slot to the profile and indexes its attributes,
// demographics, and current page likes. Duplicate users are an error.
func (x *Index) Add(p *profile.Profile) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("index: nil profile or empty user ID")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.slot[p.ID]; dup {
		return fmt.Errorf("index: duplicate user %q", p.ID)
	}
	s := uint32(len(x.uids))
	x.uids = append(x.uids, p.ID)
	x.slot[p.ID] = s

	p.EachAttr(func(id attr.ID) {
		getBitmap(x.has, id).set(s)
		if v, ok := p.AttrValue(id); ok {
			x.valueBitmap(id, v).set(s)
		}
	})
	getBitmap(x.ages, p.Age()).set(s)
	getBitmap(x.genders, p.Gender()).set(s)
	getBitmap(x.countries, p.Country()).set(s)
	getBitmap(x.regions, p.Region()).set(s)
	for _, page := range p.LikedPages() {
		getBitmap(x.likes, page).set(s)
	}
	updAddUser.Inc()
	if len(x.uids)%1024 == 0 {
		memoryBytes.Set(float64(x.memoryBytesLocked()))
	}
	return nil
}

// NoteAttrChanged re-indexes one attribute of an already-added profile
// after a SetAttr/SetAttrValue/ClearAttr mutation. Unknown users (mutated
// before their Add) are ignored — Add indexes their final state.
func (x *Index) NoteAttrChanged(p *profile.Profile, id attr.ID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s, ok := x.slot[p.ID]
	if !ok {
		return
	}
	if p.HasAttr(id) {
		getBitmap(x.has, id).set(s)
	} else if b := x.has[id]; b != nil {
		b.clear(s)
	}
	for _, vb := range x.vals[id] {
		vb.clear(s)
	}
	if v, ok := p.AttrValue(id); ok {
		x.valueBitmap(id, v).set(s)
	}
	updAttrChange.Inc()
}

// NoteLike records a like (liked=true) or unlike (liked=false) of a page
// by an already-added user.
func (x *Index) NoteLike(uid profile.UserID, page string, liked bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s, ok := x.slot[uid]
	if !ok {
		return
	}
	if liked {
		getBitmap(x.likes, page).set(s)
	} else if b := x.likes[page]; b != nil {
		b.clear(s)
	}
	updLike.Inc()
}

// SetBit and ClearBit mutate a caller-owned bitmap (an audience membership
// bitmap) under the index write lock, so concurrent queries reading the
// bitmap through a Node never observe a torn grow.
func (x *Index) SetBit(b *Bitmap, slot uint32) {
	x.mu.Lock()
	b.set(slot)
	x.mu.Unlock()
	updAudienceBit.Inc()
}

// ClearBit clears a bit in a caller-owned bitmap under the write lock.
func (x *Index) ClearBit(b *Bitmap, slot uint32) {
	x.mu.Lock()
	b.clear(slot)
	x.mu.Unlock()
	updAudienceBit.Inc()
}

// TestBit reads a caller-owned bitmap bit under the read lock.
func (x *Index) TestBit(b *Bitmap, slot uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return b.test(slot)
}

// Len returns the number of indexed users.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.uids)
}

// Slot returns the dense slot of a user.
func (x *Index) Slot(uid profile.UserID) (uint32, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s, ok := x.slot[uid]
	return s, ok
}

// UserID returns the user occupying a slot ("" if out of range).
func (x *Index) UserID(slot uint32) profile.UserID {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if int(slot) >= len(x.uids) {
		return ""
	}
	return x.uids[slot]
}

// AttrCount returns the number of users holding the attribute — the O(1)
// prevalence read that replaces the platform's per-attribute population
// scan.
func (x *Index) AttrCount(id attr.ID) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if b := x.has[id]; b != nil {
		return b.count()
	}
	return 0
}

// TestAttr reports whether the user in the slot holds the attribute.
func (x *Index) TestAttr(id attr.ID, slot uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	b := x.has[id]
	return b != nil && b.test(slot)
}

// TestLike reports whether the user in the slot currently likes the page.
func (x *Index) TestLike(page string, slot uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	b := x.likes[page]
	return b != nil && b.test(slot)
}

// Stats is a point-in-time summary of the index's shape.
type Stats struct {
	Users        int // indexed users
	PostingLists int // attribute + value + demographic + like bitmaps
	MemoryBytes  int // bitmap words + slot tables
}

// Stats returns the index's current shape.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := len(x.has) + len(x.ages) + len(x.genders) + len(x.countries) + len(x.regions) + len(x.likes)
	for _, m := range x.vals {
		n += len(m)
	}
	return Stats{
		Users:        len(x.uids),
		PostingLists: n,
		MemoryBytes:  x.memoryBytesLocked(),
	}
}

// MemoryBytes returns the index's approximate heap footprint.
func (x *Index) MemoryBytes() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.memoryBytesLocked()
}

func (x *Index) memoryBytesLocked() int {
	total := 0
	for _, b := range x.has {
		total += b.memBytes()
	}
	for _, m := range x.vals {
		for _, b := range m {
			total += b.memBytes()
		}
	}
	for _, b := range x.ages {
		total += b.memBytes()
	}
	for _, b := range x.genders {
		total += b.memBytes()
	}
	for _, b := range x.countries {
		total += b.memBytes()
	}
	for _, b := range x.regions {
		total += b.memBytes()
	}
	for _, b := range x.likes {
		total += b.memBytes()
	}
	// Slot table: string header + map entry is ~64 bytes per user in
	// practice; count it coarsely so the gauge reflects real growth.
	total += len(x.uids) * 64
	return total
}

// RefreshMemoryGauge recomputes the index_memory_bytes gauge. Add refreshes
// it automatically every 1024 users; call this after a bulk build.
func (x *Index) RefreshMemoryGauge() {
	x.mu.RLock()
	m := x.memoryBytesLocked()
	x.mu.RUnlock()
	memoryBytes.Set(float64(m))
}

// getBitmap get-or-creates a posting list in a keyed bitmap map.
func getBitmap[K comparable](m map[K]*Bitmap, key K) *Bitmap {
	b := m[key]
	if b == nil {
		b = &Bitmap{}
		m[key] = b
	}
	return b
}

func (x *Index) valueBitmap(id attr.ID, v string) *Bitmap {
	m := x.vals[id]
	if m == nil {
		m = make(map[string]*Bitmap)
		x.vals[id] = m
	}
	b := m[v]
	if b == nil {
		b = &Bitmap{}
		m[v] = b
	}
	return b
}
