package profile

import (
	"slices"
	"testing"

	"github.com/treads-project/treads/internal/attr"
)

// orderIDs are in ID order and interned in reverse, so each has a lower
// ordinal than the ID before it: an order check or merge that compared
// ordinals as numbers would take every sorted input for unsorted, and the
// reverse for sorted.
var orderIDs = []attr.ID{"test.order.a", "test.order.b", "test.order.c", "test.order.d"}

func orderOrds(t *testing.T) []attr.Ord {
	t.Helper()
	ords := make([]attr.Ord, len(orderIDs))
	for i := len(orderIDs) - 1; i >= 0; i-- {
		ords[i] = attr.Intern(orderIDs[i])
	}
	for i := 1; i < len(ords); i++ {
		if ords[i] >= ords[i-1] {
			t.Fatalf("%s has ordinal %d, %s %d: the IDs were interned in order", orderIDs[i], ords[i], orderIDs[i-1], ords[i-1])
		}
	}
	return ords
}

// TestSetSortedAttrsOrdersByIDNotOrdinal: SetSortedAttrs accepts input in
// ID order, refuses input out of it (also when the ordinals ascend), and on
// a profile with no attributes keeps one entry per repeated ID, the last
// value of a repeated categorical one.
func TestSetSortedAttrsOrdersByIDNotOrdinal(t *testing.T) {
	o := orderOrds(t)
	a, b, c, d := o[0], o[1], o[2], o[3]

	p := New("u")
	p.SetSortedAttrs([]attr.Ord{a, b, d}, []ValuedAttr{{a, "x"}, {c, "y"}})
	if got, want := p.Attrs(), []attr.ID{orderIDs[0], orderIDs[0], orderIDs[1], orderIDs[2], orderIDs[3]}; !slices.Equal(got, want) {
		t.Fatalf("sorted input: Attrs = %v, want %v", got, want)
	}
	// The merge onto held attributes compares the same way.
	p.SetSortedAttrs([]attr.Ord{c}, []ValuedAttr{{b, "z"}, {d, "w"}})
	if got, want := p.Snapshot().Binary, orderIDs; !slices.Equal(got, want) {
		t.Fatalf("after a second call: binary = %v, want %v", got, want)
	}
	for i, want := range []string{"x", "z", "y", "w"} {
		if v, ok := p.AttrValue(orderIDs[i]); !ok || v != want {
			t.Fatalf("after a second call: AttrValue(%s) = %q, %v, want %q", orderIDs[i], v, ok, want)
		}
	}

	for name, call := range map[string]func(p *Profile){
		"binary, ordinals ascending":  func(p *Profile) { p.SetSortedAttrs([]attr.Ord{d, a}, nil) },
		"binary, ordinals descending": func(p *Profile) { p.SetSortedAttrs([]attr.Ord{a, c, b}, nil) },
		"values, ordinals ascending":  func(p *Profile) { p.SetSortedAttrs(nil, []ValuedAttr{{c, "x"}, {b, "y"}}) },
		"values, ordinals descending": func(p *Profile) { p.SetSortedAttrs(nil, []ValuedAttr{{a, "x"}, {d, "y"}, {b, "z"}}) },
		"values after sorted binary":  func(p *Profile) { p.SetSortedAttrs([]attr.Ord{a, b}, []ValuedAttr{{b, "x"}, {a, "y"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s, out of ID order: no panic", name)
				}
			}()
			call(New("u"))
		}()
	}

	fresh := New("u")
	fresh.SetSortedAttrs([]attr.Ord{a, a, c, c, c}, []ValuedAttr{{b, "1"}, {b, "2"}, {c, "3"}, {d, "4"}, {d, "5"}, {d, "6"}})
	if got, want := fresh.Snapshot().Binary, []attr.ID{orderIDs[0], orderIDs[2]}; !slices.Equal(got, want) {
		t.Fatalf("repeats on a fresh profile: binary = %v, want %v", got, want)
	}
	if got := fresh.AttrCount(); got != 5 {
		t.Fatalf("repeats on a fresh profile: AttrCount = %d, want 5", got)
	}
	for i, want := range map[int]string{1: "2", 2: "3", 3: "6"} {
		if v, ok := fresh.AttrValue(orderIDs[i]); !ok || v != want {
			t.Fatalf("repeats on a fresh profile: AttrValue(%s) = %q, %v, want the last value %q", orderIDs[i], v, ok, want)
		}
	}
}
