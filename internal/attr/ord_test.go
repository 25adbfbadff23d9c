package attr

import (
	"fmt"
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
// read the table: under -race (make race-full runs it ten times) a reader's
// unlocked load must be ordered after the append it indexes.
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
				for o := len(ids) - 1; o >= 0 && o >= len(ids)-64; o-- {
					if ids[o] == "" {
						t.Errorf("ordinal %d of %d names no ID", o, len(ids))
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
