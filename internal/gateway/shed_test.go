package gateway

import (
	"sync"
	"testing"
)

func TestShedderStrictPriority(t *testing.T) {
	s := newShedder(10)
	// Report ceiling is half the budget.
	for i := 0; i < 5; i++ {
		if !s.acquire(ClassReport) {
			t.Fatalf("report acquire %d refused under ceiling", i)
		}
	}
	if s.acquire(ClassReport) {
		t.Fatalf("report admitted past its 50%% ceiling")
	}
	// Mutations still fit (ceiling 8), and user traffic has the most
	// headroom.
	for i := 0; i < 3; i++ {
		if !s.acquire(ClassMutation) {
			t.Fatalf("mutation acquire %d refused with report at ceiling", i)
		}
	}
	if s.acquire(ClassMutation) {
		t.Fatalf("mutation admitted past its 80%% ceiling")
	}
	for i := 0; i < 2; i++ {
		if !s.acquire(ClassUser) {
			t.Fatalf("user acquire %d refused with headroom reserved for it", i)
		}
	}
	if s.acquire(ClassUser) {
		t.Fatalf("user admitted past the total budget")
	}
	if got := s.inflight.Load(); got != 10 {
		t.Fatalf("inflight = %d, want 10", got)
	}
	// Releases restore admission for every class.
	for i := 0; i < 10; i++ {
		s.release()
	}
	if !s.acquire(ClassReport) {
		t.Fatalf("report refused after full release")
	}
}

func TestShedderTinyBudgetServesEveryClass(t *testing.T) {
	s := newShedder(1)
	for c := Class(0); c < numClasses; c++ {
		if !s.acquire(c) {
			t.Fatalf("class %v refused on an idle budget of 1", c)
		}
		s.release()
	}
}

func TestShedderConcurrentAccounting(t *testing.T) {
	s := newShedder(8)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if s.acquire(ClassUser) {
					s.release()
				}
			}
		}()
	}
	wg.Wait()
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", got)
	}
}
