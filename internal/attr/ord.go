package attr

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Ord is an attribute ID's ordinal: its position in the process-wide ID
// table. A profile stores its attributes as ordinals, 4 bytes each instead
// of a 16-byte string header. Ordinals are assigned in interning order, so
// two ordinals compare in ID order only through the table, or through the
// rank table built from it.
type Ord uint32

// The ID table holds every ID interned in this process, at its ordinal, and
// beside it the same ID as a JSON string literal. It only grows: Intern
// appends under internMu and publishes the longer table, while readers load
// the table once and index it with no lock. It holds the distinct IDs ever
// interned: every catalog's, and any other a profile was given. Reads never
// intern.
//
// The rank table is built from the ID table on demand: Ranks rebuilds it,
// under internMu, the first time it is asked for after the ID table grew.
var (
	table    atomic.Pointer[idTable]
	ranks    atomic.Pointer[[]uint32]
	internMu sync.Mutex
	ordOf    = map[ID]Ord{}
)

// idTable is one published length of the ID table.
type idTable struct {
	ids    []ID
	quoted []string // quoted[o] is ids[o] as json.Marshal writes it
}

// loadTable returns the ID table as last published (empty before the first
// Intern).
func loadTable() *idTable {
	if t := table.Load(); t != nil {
		return t
	}
	return &noIDs
}

var noIDs idTable

// Intern returns id's ordinal, adding id to the table if it is not there.
func Intern(id ID) Ord {
	internMu.Lock()
	defer internMu.Unlock()
	if o, ok := ordOf[id]; ok {
		return o
	}
	t := loadTable()
	o := Ord(len(t.ids))
	// An append within capacity writes past every published length, which
	// no reader indexes; the Store publishes the element with the length.
	table.Store(&idTable{ids: append(t.ids, id), quoted: append(t.quoted, quote(id))})
	ordOf[id] = o
	return o
}

// quote returns id as json.Marshal writes it.
func quote(id ID) string {
	q, _ := json.Marshal(string(id)) // a string always encodes
	return string(q)
}

// IDs returns the ID table: ids[o] is ordinal o's ID, for every ordinal
// interned before the call. The slice is shared; callers must not modify it.
func IDs() []ID { return loadTable().ids }

// Quoted returns the ID table's JSON string literals: quoted[o] is what
// json.Marshal writes for ordinal o's ID, for every ordinal interned before
// the call. The slice is shared; callers must not modify it.
func Quoted() []string { return loadTable().quoted }

// Ranks returns the rank table: ranks[o] is ordinal o's position in ID order
// among the interned IDs, for every ordinal interned before the call, so
// two ordinals compare as their IDs do when their ranks compare as numbers.
// The slice is shared; callers must not modify it.
func Ranks() []uint32 {
	if r := ranks.Load(); r != nil && len(*r) == len(IDs()) {
		return *r
	}
	internMu.Lock()
	defer internMu.Unlock()
	ids := IDs()
	if r := ranks.Load(); r != nil && len(*r) == len(ids) {
		return *r
	}
	byID := make([]Ord, len(ids))
	for o := range byID {
		byID[o] = Ord(o)
	}
	slices.SortFunc(byID, func(a, b Ord) int { return strings.Compare(string(ids[a]), string(ids[b])) })
	r := make([]uint32, len(ids))
	for rank, o := range byID {
		r[o] = uint32(rank)
	}
	ranks.Store(&r)
	return r
}
