package profile

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/treads-project/treads/internal/attr"
)

// The step alphabet of the model test and the fuzzer: each step is an op on
// one of a few IDs, values or pages, so an ID often sits in the other set
// already and a clear or unlike often names something absent.
const (
	opSetAttr = iota
	opSetAttrValue
	opClearAttr
	opLike
	opUnlike
	opPack // what Store.Add does to a profile before holding it
	numOps
)

var (
	modelIDs    = []attr.ID{"a.one", "b.two", "c.three", "d.four", "e.five"}
	modelValues = []string{"x", "y", "z"}
	modelPages  = []string{"page-1", "page-2", "page-3"}
	absentID    = attr.ID("zz.absent")
)

type step struct{ op, id, val int }

// mapModel is the profile as two maps and a like set: the representation
// the sorted slices replaced, kept as the oracle.
type mapModel struct {
	binary map[attr.ID]bool
	values map[attr.ID]string
	likes  map[string]bool
}

// coverage counts the steps that exercised the cases the slices must get
// right: an op on an ID already in the other set, and one on an absent ID.
type coverage struct{ inOther, absent int }

func (m *mapModel) apply(p *Profile, s step, cov *coverage) {
	id := modelIDs[s.id%len(modelIDs)]
	_, inValues := m.values[id]
	switch s.op % numOps {
	case opSetAttr:
		if inValues {
			cov.inOther++
		}
		p.SetAttr(id)
		m.binary[id] = true
	case opSetAttrValue:
		if m.binary[id] {
			cov.inOther++
		}
		v := modelValues[s.val%len(modelValues)]
		p.SetAttrValue(id, v)
		m.values[id] = v
	case opClearAttr:
		if !m.binary[id] && !inValues {
			cov.absent++
		} else if m.binary[id] && inValues {
			cov.inOther++
		}
		p.ClearAttr(id)
		delete(m.binary, id)
		delete(m.values, id)
	case opLike:
		page := modelPages[s.val%len(modelPages)]
		p.Like(page)
		m.likes[page] = true
	case opUnlike:
		page := modelPages[s.val%len(modelPages)]
		if !m.likes[page] {
			cov.absent++
		}
		p.Unlike(page)
		delete(m.likes, page)
	case opPack:
		p.pack()
	}
}

func (m *mapModel) attrs() []attr.ID {
	out := sortedKeys(m.binary)
	for id := range m.values {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// check fails t unless p agrees with the model on every read surface.
func (m *mapModel) check(t testing.TB, p *Profile, where string) {
	t.Helper()
	for _, id := range append(slices.Clone(modelIDs), absentID) {
		_, inValues := m.values[id]
		if got, want := p.HasAttr(id), m.binary[id] || inValues; got != want {
			t.Fatalf("%s: HasAttr(%s) = %v, want %v", where, id, got, want)
		}
		v, ok := p.AttrValue(id)
		if wantV, wantOK := m.values[id]; v != wantV || ok != wantOK {
			t.Fatalf("%s: AttrValue(%s) = %q, %v, want %q, %v", where, id, v, ok, wantV, wantOK)
		}
	}
	want := m.attrs()
	if got := p.Attrs(); !slices.Equal(got, want) {
		t.Fatalf("%s: Attrs = %v, want %v", where, got, want)
	}
	var visited []attr.ID
	p.EachAttr(func(id attr.ID) { visited = append(visited, id) })
	slices.Sort(visited)
	if !slices.Equal(visited, want) {
		t.Fatalf("%s: EachAttr visits %v, want %v", where, visited, want)
	}
	if got := p.AttrCount(); got != len(want) {
		t.Fatalf("%s: AttrCount = %d, want %d", where, got, len(want))
	}
	likes := sortedKeys(m.likes)
	if got := p.LikedPages(); !slices.Equal(got, likes) {
		t.Fatalf("%s: LikedPages = %v, want %v", where, got, likes)
	}

	snap := p.Snapshot()
	if !slices.Equal(snap.Binary, sortedKeys(m.binary)) || !maps.Equal(snap.Values, m.values) {
		t.Fatalf("%s: Snapshot attrs = %v %v, want %v %v", where, snap.Binary, snap.Values, m.binary, m.values)
	}
	back, err := FromState(snap)
	if err != nil {
		t.Fatalf("%s: FromState: %v", where, err)
	}
	if again := back.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatalf("%s: Snapshot → FromState → Snapshot = %+v, want %+v", where, again, snap)
	}
}

func runModel(t testing.TB, steps []step) coverage {
	t.Helper()
	p := New("u")
	m := &mapModel{binary: map[attr.ID]bool{}, values: map[attr.ID]string{}, likes: map[string]bool{}}
	var cov coverage
	m.check(t, p, "fresh profile")
	for i, s := range steps {
		m.apply(p, s, &cov)
		m.check(t, p, fmt.Sprintf("step %d (op %d)", i, s.op%numOps))
	}
	return cov
}

// TestProfileMatchesMapModel drives 200 seeded random op sequences against
// a profile and the two-map model it replaced, comparing every read after
// every step.
func TestProfileMatchesMapModel(t *testing.T) {
	var total coverage
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		steps := make([]step, 20+rng.IntN(60))
		for i := range steps {
			steps[i] = step{op: rng.IntN(numOps), id: rng.IntN(len(modelIDs)), val: rng.IntN(len(modelValues))}
		}
		cov := runModel(t, steps)
		total.inOther += cov.inOther
		total.absent += cov.absent
	}
	if total.inOther == 0 || total.absent == 0 {
		t.Fatalf("sequences never hit an ID in the other set (%d) or an absent one (%d)", total.inOther, total.absent)
	}
}

// FuzzProfileOps reads its input as (op, id, value) byte triples over the
// same step alphabet.
func FuzzProfileOps(f *testing.F) {
	f.Add([]byte{opSetAttr, 0, 0, opSetAttrValue, 0, 1, opClearAttr, 0, 0})
	f.Add([]byte{opSetAttrValue, 1, 2, opSetAttr, 1, 0, opPack, 0, 0, opClearAttr, 1, 0, opClearAttr, 1, 0})
	f.Add([]byte{opLike, 0, 0, opLike, 0, 0, opUnlike, 0, 1, opUnlike, 0, 0, opSetAttr, 4, 0, opSetAttr, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := make([]step, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			steps = append(steps, step{op: int(data[i]), id: int(data[i+1]), val: int(data[i+2])})
		}
		runModel(t, steps)
	})
}
