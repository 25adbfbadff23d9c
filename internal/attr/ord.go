package attr

import (
	"sync"
	"sync/atomic"
)

// Ord is an attribute ID's ordinal: its position in the process-wide ID
// table. A profile stores its attributes as ordinals, 4 bytes each instead
// of a 16-byte string header. Ordinals are assigned in interning order, so
// two ordinals compare in ID order only through the table.
type Ord uint32

// The ID table holds every ID interned in this process, at its ordinal. It
// only grows: Intern appends under internMu and publishes the longer slice,
// while readers load the slice once and index it with no lock. It holds the
// distinct IDs ever interned: every catalog's, and any other a profile was
// given. Reads never intern.
var (
	idTable  atomic.Pointer[[]ID]
	internMu sync.Mutex
	ordOf    = map[ID]Ord{}
)

// Intern returns id's ordinal, adding id to the table if it is not there.
func Intern(id ID) Ord {
	internMu.Lock()
	defer internMu.Unlock()
	if o, ok := ordOf[id]; ok {
		return o
	}
	ids := IDs()
	o := Ord(len(ids))
	// An append within capacity writes past every published length, which
	// no reader indexes; the Store publishes the element with the length.
	ids = append(ids, id)
	idTable.Store(&ids)
	ordOf[id] = o
	return o
}

// IDs returns the ID table: ids[o] is ordinal o's ID, for every ordinal
// interned before the call. The slice is shared; callers must not modify it.
func IDs() []ID {
	if ids := idTable.Load(); ids != nil {
		return *ids
	}
	return nil
}
