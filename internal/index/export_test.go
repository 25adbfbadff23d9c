package index

import (
	"fmt"

	"github.com/treads-project/treads/internal/attr"
)

// SameListsByOrdinal checks that for every ordinal of attr's ID table the
// ordinal slice and the ID-keyed maps lead to the same posting lists, and
// that the maps hold no list the slice does not.
func (x *Index) SameListsByOrdinal() error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ids := attr.IDs()
	hasLists, valLists := 0, 0
	for o, id := range ids {
		var pl postings
		if o < len(x.byOrd) {
			pl = x.byOrd[o]
		}
		if pl.has != x.has[id] {
			return fmt.Errorf("ordinal %d (%s): HasAttr list %p by ordinal, %p by ID", o, id, pl.has, x.has[id])
		}
		if len(pl.vals) != len(x.vals[id]) {
			return fmt.Errorf("ordinal %d (%s): %d value lists by ordinal, %d by ID", o, id, len(pl.vals), len(x.vals[id]))
		}
		for v, b := range x.vals[id] {
			if pl.vals[v] != b {
				return fmt.Errorf("ordinal %d (%s): value %q list %p by ordinal, %p by ID", o, id, v, pl.vals[v], b)
			}
		}
		if pl.has != nil {
			hasLists++
		}
		if pl.vals != nil {
			valLists++
		}
	}
	if hasLists != len(x.has) || valLists != len(x.vals) {
		return fmt.Errorf("ID maps hold %d HasAttr and %d value entries, the ordinal slice %d and %d", len(x.has), len(x.vals), hasLists, valLists)
	}
	return nil
}
