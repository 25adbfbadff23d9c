package attr

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCatalogInternsItsIDs(t *testing.T) {
	c := DefaultCatalog()
	ids := IDs()
	for _, a := range c.All() {
		if ids[a.Ord()] != a.ID {
			t.Fatalf("%s has ordinal %d, which names %s", a.ID, a.Ord(), ids[a.Ord()])
		}
		if o := Intern(a.ID); o != a.Ord() {
			t.Fatalf("Intern(%s) = %d, the catalog says %d", a.ID, o, a.Ord())
		}
	}
	n := len(IDs())
	if again := DefaultCatalog(); again.All()[0].Ord() != c.All()[0].Ord() || len(IDs()) != n {
		t.Fatalf("a second catalog of the same IDs grew the table from %d to %d", n, len(IDs()))
	}
}

// TestInternDuringReads interns new IDs from several goroutines while others
// read the ID, quoted and rank tables: under -race (make race-full runs it
// ten times) a reader's unlocked load must be ordered after the append it
// indexes, and a rank table read after the ID table must cover it and order
// it as the IDs compare.
func TestInternDuringReads(t *testing.T) {
	const writers, readers, perWriter = 4, 4, 500
	got := make([][]Ord, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := IDs()
				quoted, ranks := Quoted(), Ranks()
				if len(quoted) < len(ids) || len(ranks) < len(ids) {
					t.Errorf("%d IDs, read before %d quoted and %d ranks", len(ids), len(quoted), len(ranks))
					return
				}
				for o := len(ids) - 1; o >= 0 && o >= len(ids)-64; o-- {
					if ids[o] == "" {
						t.Errorf("ordinal %d of %d names no ID", o, len(ids))
						return
					}
					if want, _ := json.Marshal(string(ids[o])); quoted[o] != string(want) {
						t.Errorf("ordinal %d (%s) is quoted %s, want %s", o, ids[o], quoted[o], want)
						return
					}
					if o > 0 && (ranks[o-1] < ranks[o]) != (ids[o-1] < ids[o]) {
						t.Errorf("ordinals %d (%s) and %d (%s) have ranks %d and %d", o-1, ids[o-1], o, ids[o], ranks[o-1], ranks[o])
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				// Every writer interns every ID of the run, so each is
				// raced for by all of them.
				got[w] = append(got[w], Intern(ID(fmt.Sprintf("test.intern.%d", i))))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	ids := IDs()
	for i := 0; i < perWriter; i++ {
		id := ID(fmt.Sprintf("test.intern.%d", i))
		for w := range got {
			if got[w][i] != got[0][i] || ids[got[w][i]] != id {
				t.Fatalf("writer %d got ordinal %d for %s, writer 0 got %d; the table names %s", w, got[w][i], id, got[0][i], ids[got[w][i]])
			}
		}
	}
}

// TestRanksFollowIDOrder: the rank table orders every ordinal as its ID, also
// after IDs interned in reverse order grew the table since it was built, and
// each ID's quoted form is json.Marshal's.
func TestRanksFollowIDOrder(t *testing.T) {
	Ranks()
	for i := 9; i >= 0; i-- {
		Intern(ID(fmt.Sprintf("test.ranks.%d", i)))
	}
	ids, quoted, ranks := IDs(), Quoted(), Ranks()
	if len(ranks) != len(ids) || len(quoted) != len(ids) {
		t.Fatalf("%d IDs, %d ranks, %d quoted", len(ids), len(ranks), len(quoted))
	}
	byRank := make([]ID, len(ids))
	for o, r := range ranks {
		byRank[r] = ids[o]
	}
	if !slices.IsSorted(byRank) || slices.Contains(byRank, "") {
		t.Fatalf("the IDs in rank order are not the IDs in ID order: %v", byRank)
	}
	for o, id := range ids {
		if want, _ := json.Marshal(string(id)); quoted[o] != string(want) {
			t.Fatalf("ordinal %d (%s) is quoted %s, want %s", o, id, quoted[o], want)
		}
	}
}
