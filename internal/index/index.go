package index

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

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
//
// An attribute's posting lists are reachable two ways: by ID, the way
// queries name them, and by the attribute's ordinal in attr's ID table, the
// way a profile holds them. Both lead to the same *Bitmap values: the write
// path (Add, NoteAttrChanged) is the only one that creates lists, and
// hasBitmap and valueBitmap enter each new list in both.
type Index struct {
	mu   sync.RWMutex
	hint int                       // the users New was told to expect
	uids []profile.UserID          // slot -> user, insertion order
	slot map[profile.UserID]uint32 // user -> slot

	has       map[attr.ID]*Bitmap            // HasAttr posting lists
	vals      map[attr.ID]map[string]*Bitmap // ValueIs posting lists
	byOrd     []postings                     // the same lists, by ordinal
	ages      map[int]*Bitmap
	genders   map[string]*Bitmap
	countries map[string]*Bitmap
	regions   map[string]*Bitmap
	likes     map[string]*Bitmap // liked page -> likers
}

// New returns an empty index whose slot tables are pre-sized for sizeHint
// users. Until it holds that many, every attribute, value and demographic
// posting list Add creates is too, so a boot that adds the users it
// announced grows no table and no such list.
func New(sizeHint int) *Index {
	sizeHint = max(sizeHint, 0)
	return &Index{
		hint:      sizeHint,
		uids:      make([]profile.UserID, 0, sizeHint),
		slot:      make(map[profile.UserID]uint32, sizeHint),
		has:       make(map[attr.ID]*Bitmap),
		vals:      make(map[attr.ID]map[string]*Bitmap),
		ages:      make(map[int]*Bitmap),
		genders:   make(map[string]*Bitmap),
		countries: make(map[string]*Bitmap),
		regions:   make(map[string]*Bitmap),
		likes:     make(map[string]*Bitmap),
	}
}

// Source is the profile iteration surface VerifyExpr scans;
// *profile.Store satisfies it.
type Source interface {
	Each(func(*profile.Profile))
}

// postings is one attribute's entries in has and vals, reached by ordinal:
// nil until the write path first needs them.
type postings struct {
	has  *Bitmap
	vals map[string]*Bitmap
}

// ErrDuplicate is wrapped by Add's error for a user the index holds.
var ErrDuplicate = errors.New("index: duplicate user")

// Add assigns the next slot to the profile, indexes its attributes,
// demographics, and current page likes, and returns the slot. A user the
// index already holds is not indexed again: Add returns the user's slot and
// an error wrapping ErrDuplicate. Finding or adding takes one hold of the
// index lock.
func (x *Index) Add(p *profile.Profile) (uint32, error) {
	if p == nil || p.ID == "" {
		return 0, fmt.Errorf("index: nil profile or empty user ID")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if s, dup := x.slot[p.ID]; dup {
		return s, fmt.Errorf("%w %q", ErrDuplicate, p.ID)
	}
	bits := 0 // what a list created here is allocated at
	if len(x.uids) < x.hint {
		bits = x.hint
	}
	s := uint32(len(x.uids))
	x.uids = append(x.uids, p.ID)
	x.slot[p.ID] = s

	ids := attr.IDs()
	binary, values := p.AttrOrds()
	for _, o := range binary {
		x.hasBitmap(ids, o, bits).set(s)
	}
	for _, v := range values {
		x.hasBitmap(ids, v.Ord, bits).set(s)
		x.valueBitmap(ids, v.Ord, v.Value, bits).set(s)
	}
	getBitmap(x.ages, p.Age(), bits).set(s)
	getBitmap(x.genders, p.Gender(), bits).set(s)
	getBitmap(x.countries, p.Country(), bits).set(s)
	getBitmap(x.regions, p.Region(), bits).set(s)
	// Like lists start empty: there are as many as pages users like.
	for _, page := range p.LikedPages() {
		getBitmap(x.likes, page, 0).set(s)
	}
	updAddUser.Inc()
	if len(x.uids)%1024 == 0 {
		memoryBytes.Set(float64(x.memoryBytesLocked()))
	}
	return s, nil
}

// NoteAttrChanged re-indexes one attribute, named by its ordinal, of an
// already-added profile after a SetAttr/SetAttrValue mutation. Unknown
// users (mutated before their Add) are ignored — Add indexes their final
// state.
func (x *Index) NoteAttrChanged(p *profile.Profile, o attr.Ord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	s, ok := x.slot[p.ID]
	if !ok {
		return
	}
	ids := attr.IDs()
	pl := x.postingsOf(ids, o)
	binary, values := p.AttrOrds()
	i := slices.IndexFunc(values, func(v profile.ValuedAttr) bool { return v.Ord == o })
	if i >= 0 || slices.Contains(binary, o) {
		x.hasBitmap(ids, o, 0).set(s)
	} else if pl.has != nil {
		pl.has.clear(s)
	}
	for _, vb := range pl.vals {
		vb.clear(s)
	}
	if i >= 0 {
		x.valueBitmap(ids, o, values[i].Value, 0).set(s)
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
		getBitmap(x.likes, page, 0).set(s)
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
	total += cap(x.byOrd) * int(unsafe.Sizeof(postings{}))
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

// getBitmap get-or-creates a posting list in a keyed bitmap map, a new one
// allocated at bits.
func getBitmap[K comparable](m map[K]*Bitmap, key K, bits int) *Bitmap {
	b := m[key]
	if b == nil {
		b = NewBitmap(bits)
		m[key] = b
	}
	return b
}

// postingsOf returns ordinal o's entry in byOrd, growing byOrd to the
// length of ids, the ID table, when o is beyond it. The pointer is valid
// until byOrd next grows. Caller holds the write lock.
func (x *Index) postingsOf(ids []attr.ID, o attr.Ord) *postings {
	if int(o) >= len(x.byOrd) {
		x.byOrd = append(x.byOrd, make([]postings, len(ids)-len(x.byOrd))...)
	}
	return &x.byOrd[o]
}

// hasBitmap get-or-creates ordinal o's HasAttr posting list, a new one
// allocated at bits.
func (x *Index) hasBitmap(ids []attr.ID, o attr.Ord, bits int) *Bitmap {
	pl := x.postingsOf(ids, o)
	if pl.has == nil {
		pl.has = NewBitmap(bits)
		x.has[ids[o]] = pl.has
	}
	return pl.has
}

// valueBitmap get-or-creates the posting list of ordinal o's value v, a new
// one allocated at bits.
func (x *Index) valueBitmap(ids []attr.ID, o attr.Ord, v string, bits int) *Bitmap {
	pl := x.postingsOf(ids, o)
	if pl.vals == nil {
		pl.vals = make(map[string]*Bitmap)
		x.vals[ids[o]] = pl.vals
	}
	b := pl.vals[v]
	if b == nil {
		b = NewBitmap(bits)
		pl.vals[v] = b
	}
	return b
}
