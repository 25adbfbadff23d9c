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

// Index is the inverted targeting index over one shard's users. A user's
// bit in every posting list is its ordinal in the profile store
// (profile.Profile.Ord), so the index keeps no per-user key of its own:
// every targeting attribute, categorical value, demographic value, and
// liked page maps to a Bitmap of the ordinals holding it. Boolean targeting
// expressions compile into word-streamed plans over those bitmaps
// (node.go).
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
	hint int // the users New was told to expect
	// users is the population: the ordinals of the users Add has indexed,
	// n of them. A store publishes a user before its watcher reaches Add,
	// so an ordinal may be in the store and not here yet; a query counts
	// only the users here.
	users Bitmap
	n     int

	has       map[attr.ID]*Bitmap            // HasAttr posting lists
	vals      map[attr.ID]map[string]*Bitmap // ValueIs posting lists
	byOrd     []postings                     // the same lists, by ordinal
	ages      map[int]*Bitmap
	genders   map[string]*Bitmap
	countries map[string]*Bitmap
	regions   map[string]*Bitmap
	likes     map[string]*Bitmap // liked page -> likers
}

// New returns an empty index sized for sizeHint users: until it holds that
// many, every attribute, value and demographic posting list Add creates is
// allocated at that many bits, so a boot that adds the users it announced
// grows no such list.
func New(sizeHint int) *Index {
	sizeHint = max(sizeHint, 0)
	return &Index{
		hint:      sizeHint,
		users:     *NewBitmap(sizeHint),
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

// Add indexes the profile at its ordinal: its attributes, demographics,
// and current page likes. A user the index already holds is not indexed
// again: Add returns an error wrapping ErrDuplicate. Finding or adding
// takes one hold of the index lock.
func (x *Index) Add(p *profile.Profile) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("index: nil profile or empty user ID")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	s := p.Ord()
	if x.users.test(s) {
		return fmt.Errorf("%w %q", ErrDuplicate, p.ID)
	}
	bits := 0 // what a list created here is allocated at
	if x.n < x.hint {
		bits = x.hint
	}
	x.users.set(s)
	x.n++

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
	if x.n%1024 == 0 {
		memoryBytes.Set(float64(x.memoryBytesLocked()))
	}
	return nil
}

// NoteAttrChanged re-indexes one attribute, named by its ordinal, of an
// already-added profile after a SetAttr/SetAttrValue mutation, and reports
// whether the index holds the user. A user mutated before its Add is
// ignored — Add indexes its final state.
func (x *Index) NoteAttrChanged(p *profile.Profile, o attr.Ord) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := p.Ord()
	if !x.users.test(s) {
		return false
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
	return true
}

// NoteLike records a like (liked=true) or unlike (liked=false) of a page
// by the already-added user with the given ordinal.
func (x *Index) NoteLike(user uint32, page string, liked bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.users.test(user) {
		return
	}
	if liked {
		getBitmap(x.likes, page, 0).set(user)
	} else if b := x.likes[page]; b != nil {
		b.clear(user)
	}
	updLike.Inc()
}

// SetBit and ClearBit mutate a caller-owned bitmap (an audience membership
// bitmap) under the index write lock, so concurrent queries reading the
// bitmap through a Node never observe a torn grow.
func (x *Index) SetBit(b *Bitmap, user uint32) {
	x.mu.Lock()
	b.set(user)
	x.mu.Unlock()
	updAudienceBit.Inc()
}

// ClearBit clears a bit in a caller-owned bitmap under the write lock.
func (x *Index) ClearBit(b *Bitmap, user uint32) {
	x.mu.Lock()
	b.clear(user)
	x.mu.Unlock()
	updAudienceBit.Inc()
}

// TestBit reads a caller-owned bitmap bit under the read lock.
func (x *Index) TestBit(b *Bitmap, user uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return b.test(user)
}

// Len returns the number of indexed users.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.n
}

// Holds reports whether the index holds the user with the given ordinal.
func (x *Index) Holds(user uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.users.test(user)
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

// TestAttr reports whether the user with the given ordinal holds the
// attribute.
func (x *Index) TestAttr(id attr.ID, user uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	b := x.has[id]
	return b != nil && b.test(user)
}

// TestLike reports whether the user with the given ordinal currently likes
// the page.
func (x *Index) TestLike(page string, user uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	b := x.likes[page]
	return b != nil && b.test(user)
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
	total += x.users.memBytes()
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
