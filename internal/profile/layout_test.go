package profile

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"github.com/treads-project/treads/internal/attr"
)

// TestProfileSize pins the layout: a store holds one Profile per user, and
// at 128 bytes it sits one allocator size class below the 256 it took when
// every profile carried its own watcher, lock, place strings and rare
// fields.
func TestProfileSize(t *testing.T) {
	if size := unsafe.Sizeof(Profile{}); size > 128 {
		t.Fatalf("Profile is %d bytes, want at most 128", size)
	}
}

// TestFromStateRefusesAgesOutOfRange: every age a Profile can hold
// round-trips through FromState, Snapshot and AppendSnapshotJSON, and each
// age it cannot hold is refused with ErrAgeOutOfRange, not wrapped round.
func TestFromStateRefusesAgesOutOfRange(t *testing.T) {
	for age := 0; age <= MaxAge; age++ {
		p, err := FromState(State{ID: "u", Age: age})
		if err != nil {
			t.Fatalf("age %d: %v", age, err)
		}
		if got := p.Snapshot().Age; got != age {
			t.Fatalf("age %d reads back as %d", age, got)
		}
		want := fmt.Sprintf(`{"id":"u","age":%d}`, age)
		if age == 0 {
			want = `{"id":"u"}`
		}
		if got := string(p.AppendSnapshotJSON(nil)); got != want {
			t.Fatalf("age %d encodes as %s, want %s", age, got, want)
		}
	}
	for _, age := range []int{-1, MaxAge + 1, 1000, math.MaxInt, math.MinInt} {
		if p, err := FromState(State{ID: "u", Age: age}); !errors.Is(err, ErrAgeOutOfRange) {
			t.Fatalf("age %d: FromState = %v, %v, want ErrAgeOutOfRange", age, p, err)
		}
	}
}

// stripeWatcher counts what a store's watcher hears, under a lock of its
// own.
type stripeWatcher struct {
	mu           sync.Mutex
	likes, attrs int
}

func (w *stripeWatcher) ProfileAdded(*Profile) {}

func (w *stripeWatcher) AttrChanged(*Profile, attr.Ord) {
	w.mu.Lock()
	w.attrs++
	w.mu.Unlock()
}

func (w *stripeWatcher) LikeChanged(p *Profile, page string, liked bool) {
	_ = p.LikesPage(page) // a watcher may read the profile it hears of
	w.mu.Lock()
	w.likes++
	w.mu.Unlock()
}

// TestLikesUnderStripedLock runs likes, unlikes and both like reads on
// profiles that share one of the store's likes locks, beside attribute
// writes that notify the store's watcher. Under -race it holds the likes
// of a stored profile to its stripe, and the rare fields' first use to one
// allocation whichever of a like and a categorical write comes first.
func TestLikesUnderStripedLock(t *testing.T) {
	s := NewStore()
	w := &stripeWatcher{}
	s.SetWatcher(w)
	var shared []*Profile // ordinals 0, likeStripes, 2·likeStripes: one stripe
	for i := 0; i <= 2*likeStripes; i++ {
		p := New(UserID(fmt.Sprintf("u%03d", i)))
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
		if i%likeStripes == 0 {
			shared = append(shared, p)
		}
	}
	const rounds = 200
	pages := []string{"page-a", "page-b", "page-c"}
	var wg sync.WaitGroup
	for _, p := range shared {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := range rounds {
				p.Like(pages[i%len(pages)])
				p.Unlike(pages[(i+1)%len(pages)])
			}
		}()
		go func() {
			defer wg.Done()
			for i := range rounds {
				_ = p.LikesPage(pages[i%len(pages)])
				for _, page := range p.LikedPages() {
					if unsafe.StringData(page) != unsafe.StringData(s.page(page)) {
						t.Errorf("%s keeps its own copy of %q, not the store's", p.ID, page)
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range rounds {
				p.SetAttrValue("test.stripe.valued", pages[i%len(pages)])
				_, _ = p.AttrValue("test.stripe.valued")
			}
		}()
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if want := len(shared) * rounds; w.attrs != want {
		t.Fatalf("watcher heard %d attribute changes, want %d", w.attrs, want)
	}
	if w.likes == 0 {
		t.Fatal("watcher heard no like change")
	}
	for _, p := range shared {
		if v, ok := p.AttrValue("test.stripe.valued"); !ok || v != pages[(rounds-1)%len(pages)] {
			t.Fatalf("%s: AttrValue = %q, %v after the writes", p.ID, v, ok)
		}
	}
}
