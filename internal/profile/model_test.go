package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
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
	opSetSorted
	opSetPII // the run's text, split in two, as PII and city
	opLocate // the run's coordinates
	numOps
)

var (
	modelIDs    = []attr.ID{"a.one", "b.two", "c.three", "d.four", "e.five"}
	modelValues = []string{"x", "y", "z"}
	modelPages  = []string{"page-1", "page-2", "page-3"}
	absentID    = attr.ID("zz.absent")
)

// fixture is the free text and the coordinates one run writes: the text is
// one more page to like and the PII, for the snapshot encoder to escape as
// json does, and the coordinates are for it to format as json does.
type fixture struct {
	text     string
	lat, lon float64
}

// modelFixtures are the model test's, one per seed in turn, and the fuzzer's
// seeds. Each byte json escapes has a text where it is the only one, since a
// single such byte sends the whole string to json.Marshal.
var modelFixtures = []fixture{
	{"page-4", 42.36, -71.06},
	{"<", 1e-7, 1e21},
	{"a>b", -1e-7, -1e21},
	{"&amp;", 1e-6, 9.99e20},
	{`say "hi"`, -0.000123, 123456789.125},
	{`back\slash`, 0.5, -0.5},
	{"ctl\x00\x1f", 3e-9, -2.5e-8},
	{"line\u2028para\u2029", 1e22, -1e-300},
	{"bad\xff\xfe h\u00e9llo\xc3", 37.77, -122.42},
	{"", 0, 0},
}

type step struct{ op, id, val int }

// sortedArgs decodes a SetSortedAttrs call from one step: the low five bits
// of id pick the binary IDs and those of val the categorical ones; id's bit 5
// repeats every binary ID, val's bit 5 gives every categorical ID a second,
// later value, and val's top bits shift which values are used.
func sortedArgs(s step) (binary []attr.ID, values []ValuedAttr) {
	for j, id := range modelIDs { // already sorted
		if s.id>>j&1 == 1 {
			binary = append(binary, id)
			if s.id>>5&1 == 1 {
				binary = append(binary, id)
			}
		}
		if s.val>>j&1 == 1 {
			values = append(values, ValuedAttr{id, modelValues[(j+s.val>>6)%len(modelValues)]})
			if s.val>>5&1 == 1 {
				values = append(values, ValuedAttr{id, modelValues[(j+1+s.val>>6)%len(modelValues)]})
			}
		}
	}
	return binary, values
}

// mapModel is the profile as two maps and a like set: the representation
// the sorted slices replaced, kept as the oracle.
type mapModel struct {
	binary map[attr.ID]bool
	values map[attr.ID]string
	likes  map[string]bool
	fx     fixture
	pages  []string // modelPages and the fixture's text
}

// coverage counts the steps that exercised the cases the slices must get
// right: an op on an ID already in the other set, and one on an absent ID;
// and of SetSortedAttrs calls, one repeating an ID, one naming an ID already
// in the same set, and an empty one.
type coverage struct{ inOther, absent, repeat, preset, empty int }

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
		page := m.pages[s.val%len(m.pages)]
		p.Like(page)
		m.likes[page] = true
	case opUnlike:
		page := m.pages[s.val%len(m.pages)]
		if !m.likes[page] {
			cov.absent++
		}
		p.Unlike(page)
		delete(m.likes, page)
	case opPack:
		p.pack()
	case opSetSorted:
		binary, values := sortedArgs(s)
		if len(binary) == 0 && len(values) == 0 {
			cov.empty++
		}
		for i, id := range binary {
			if i > 0 && binary[i-1] == id {
				cov.repeat++
			}
			if _, ok := m.values[id]; ok {
				cov.inOther++
			}
			if m.binary[id] {
				cov.preset++
			}
		}
		for i, v := range values {
			if i > 0 && values[i-1].ID == v.ID {
				cov.repeat++
			}
			if m.binary[v.ID] {
				cov.inOther++
			}
			if _, ok := m.values[v.ID]; ok {
				cov.preset++
			}
		}
		p.SetSortedAttrs(binary, values)
		for _, id := range binary {
			m.binary[id] = true
		}
		for _, v := range values {
			m.values[v.ID] = v.Value
		}
	case opSetPII:
		k := s.val % (len(m.fx.text) + 1) // may split a multi-byte rune
		p.PII = pii.Record{Emails: []string{m.fx.text[:k]}, Phones: []string{m.fx.text[k:]}}
		p.City = m.fx.text
		if s.id%2 == 1 {
			p.PII, p.City = pii.Record{}, ""
		}
	case opLocate:
		p.SetLocation(m.fx.lat, m.fx.lon)
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
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if got := p.AppendSnapshotJSON([]byte("[")); !bytes.Equal(got, append([]byte("["), doc...)) {
		t.Fatalf("%s: AppendSnapshotJSON after [ = %q, want [ then json.Marshal's %q", where, got, doc)
	}
	back, err := FromState(snap)
	if err != nil {
		t.Fatalf("%s: FromState: %v", where, err)
	}
	if again := back.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatalf("%s: Snapshot → FromState → Snapshot = %+v, want %+v", where, again, snap)
	}
}

func runModel(t testing.TB, steps []step, fx fixture) coverage {
	t.Helper()
	p := New("u")
	m := &mapModel{
		binary: map[attr.ID]bool{}, values: map[attr.ID]string{}, likes: map[string]bool{},
		fx: fx, pages: append(slices.Clone(modelPages), fx.text),
	}
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
			// Each bit of a sparse byte is set one time in four, so a
			// SetSortedAttrs call is often small and sometimes empty.
			sparse := func() int { return rng.IntN(256) & rng.IntN(256) }
			steps[i] = step{op: rng.IntN(numOps), id: sparse(), val: sparse()}
		}
		cov := runModel(t, steps, modelFixtures[seed%uint64(len(modelFixtures))])
		total.inOther += cov.inOther
		total.absent += cov.absent
		total.repeat += cov.repeat
		total.preset += cov.preset
		total.empty += cov.empty
	}
	if total.inOther == 0 || total.absent == 0 || total.repeat == 0 || total.preset == 0 || total.empty == 0 {
		t.Fatalf("sequences missed a case: %+v", total)
	}
}

// TestSetSortedAttrsRefusesUnsortedInput: the merge relies on the order, so
// input out of order is a bug in the caller, not a set to store.
func TestSetSortedAttrsRefusesUnsortedInput(t *testing.T) {
	for name, call := range map[string]func(p *Profile){
		"binary": func(p *Profile) { p.SetSortedAttrs([]attr.ID{"b", "a"}, nil) },
		"values": func(p *Profile) { p.SetSortedAttrs(nil, []ValuedAttr{{"b", "x"}, {"a", "y"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of order: no panic", name)
				}
			}()
			call(New("u"))
		}()
	}
}

// FuzzProfileOps reads its input as (op, id, value) byte triples over the
// same step alphabet, with the run's free text and coordinates.
func FuzzProfileOps(f *testing.F) {
	add := func(data []byte, fx fixture) { f.Add(data, fx.text, fx.lat, fx.lon) }
	add([]byte{opSetAttr, 0, 0, opSetAttrValue, 0, 1, opClearAttr, 0, 0}, modelFixtures[0])
	add([]byte{opSetAttrValue, 1, 2, opSetAttr, 1, 0, opPack, 0, 0, opClearAttr, 1, 0, opClearAttr, 1, 0}, modelFixtures[0])
	add([]byte{opLike, 0, 0, opLike, 0, 0, opUnlike, 0, 1, opUnlike, 0, 0, opSetAttr, 4, 0, opSetAttr, 2, 0}, modelFixtures[0])
	// Bulk sets: repeats in one call, onto IDs already set, an ID in both
	// sets, then an empty call.
	add([]byte{opSetAttr, 1, 0, opSetSorted, 0b100011, 0b1100110, opSetSorted, 0b10101, 0b100101, opSetSorted, 0, 0}, modelFixtures[0])
	// Text to escape as a liked page and as PII split mid-rune, and
	// coordinates on either side of json's exponent-form cutoffs.
	for _, fx := range modelFixtures {
		add([]byte{opLike, 0, 3, opSetPII, 0, 5, opLocate, 0, 0, opSetAttrValue, 2, 1, opLike, 0, 1}, fx)
	}
	f.Fuzz(func(t *testing.T, data []byte, text string, lat, lon float64) {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
			t.Skip("json.Marshal refuses non-finite coordinates, and nothing sets them")
		}
		steps := make([]step, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			steps = append(steps, step{op: int(data[i]), id: int(data[i+1]), val: int(data[i+2])})
		}
		runModel(t, steps, fixture{text, lat, lon})
	})
}
