package attr

import (
	"strings"
	"testing"
	"testing/quick"
)

// fakeSubject implements Subject for tests.
type fakeSubject struct {
	attrs   map[ID]string // value "" means binary set
	age     int
	gender  string
	country string
	region  string
}

func (f *fakeSubject) HasAttr(id ID) bool {
	_, ok := f.attrs[id]
	return ok
}

func (f *fakeSubject) AttrValue(id ID) (string, bool) {
	v, ok := f.attrs[id]
	if !ok || v == "" {
		return "", false
	}
	return v, true
}

func (f *fakeSubject) Age() int        { return f.age }
func (f *fakeSubject) Gender() string  { return f.gender }
func (f *fakeSubject) Country() string { return f.country }
func (f *fakeSubject) Region() string  { return f.region }

func paperSubject() *fakeSubject {
	return &fakeSubject{
		attrs: map[ID]string{
			"platform.music.salsa_music":                  "",
			"platform.hobbies_and_activities.salsa_dance": "",
			"platform.demographics.life_stage":            "young family",
		},
		age: 34, gender: "male", country: "US", region: "Chicago",
	}
}

func TestExprBasics(t *testing.T) {
	s := paperSubject()
	cases := []struct {
		e    Expr
		want bool
	}{
		{MatchAll{}, true},
		{Has{"platform.music.salsa_music"}, true},
		{Has{"platform.music.jazz"}, false},
		{Not{Has{"platform.music.jazz"}}, true},
		{AgeBetween{30, 65}, true},
		{AgeBetween{35, 65}, false},
		{GenderIs{"male"}, true},
		{GenderIs{"female"}, false},
		{CountryIs{"US"}, true},
		{CountryIs{"DE"}, false},
		{RegionIs{"Chicago"}, true},
		{RegionIs{"Boston"}, false},
		{ValueIs{"platform.demographics.life_stage", "young family"}, true},
		{ValueIs{"platform.demographics.life_stage", "empty nester"}, false},
		{ValueIs{"platform.music.jazz", "x"}, false},
	}
	for _, c := range cases {
		if got := c.e.Match(s); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestExprPaperExample(t *testing.T) {
	// "People aged 30 and above who are interested in Salsa dance" (§3).
	e := NewAnd(AgeBetween{30, 120}, Has{"platform.hobbies_and_activities.salsa_dance"})
	if !e.Match(paperSubject()) {
		t.Fatal("paper targeting example should match")
	}
	young := paperSubject()
	young.age = 25
	if e.Match(young) {
		t.Fatal("under-30 user should not match")
	}
}

func TestAndOrSemantics(t *testing.T) {
	s := paperSubject()
	tr := MatchAll{}
	fa := Not{MatchAll{}}
	if !(And{Ops: []Expr{tr, tr}}).Match(s) {
		t.Error("true AND true")
	}
	if (And{Ops: []Expr{tr, fa}}).Match(s) {
		t.Error("true AND false")
	}
	if !(Or{Ops: []Expr{fa, tr}}).Match(s) {
		t.Error("false OR true")
	}
	if (Or{Ops: []Expr{fa, fa}}).Match(s) {
		t.Error("false OR false")
	}
}

func TestNewAndNewOrFlattening(t *testing.T) {
	if _, ok := NewAnd().(MatchAll); !ok {
		t.Error("NewAnd() should be MatchAll")
	}
	h := Has{"x"}
	if e := NewAnd(h); e != Expr(h) {
		t.Error("NewAnd(one) should be the operand")
	}
	if e := NewOr(h); e != Expr(h) {
		t.Error("NewOr(one) should be the operand")
	}
	if e := NewOr(); e.Match(paperSubject()) {
		t.Error("NewOr() should match nothing")
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"all()",
		"attr(platform.music.jazz)",
		"NOT attr(platform.music.jazz)",
		"attr(a.b.c) AND age(30, 65)",
		"attr(a.b.c) OR attr(d.e.f) OR gender(female)",
		"(attr(a.b.c) OR attr(d.e.f)) AND NOT region(Chicago)",
		"value(platform.demographics.life_stage, young family)",
		"country(US) AND (age(18, 24) OR age(65, 120))",
		"NOT (attr(a.a.a) AND attr(b.b.b))",
	}
	for _, in := range inputs {
		e, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		out := e.String()
		e2, err := Parse(out)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", out, in, err)
			continue
		}
		if e2.String() != out {
			t.Errorf("round trip unstable: %q -> %q -> %q", in, out, e2.String())
		}
	}
}

func TestParseSemantics(t *testing.T) {
	s := paperSubject()
	cases := []struct {
		in   string
		want bool
	}{
		{"all()", true},
		{"attr(platform.music.salsa_music) AND age(30, 65)", true},
		{"attr(platform.music.salsa_music) AND age(40, 65)", false},
		{"attr(nope) OR region(Chicago)", true},
		{"NOT attr(nope) AND NOT attr(also.nope)", true},
		{"value(platform.demographics.life_stage, young family) AND country(US)", true},
		// AND binds tighter than OR.
		{"attr(nope) AND attr(nope) OR all()", true},
		{"all() OR attr(nope) AND attr(nope)", true},
		{"(all() OR attr(nope)) AND attr(nope)", false},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := e.Match(s); got != c.want {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"attr",
		"attr(",
		"attr()",
		"bogus(x)",
		"all(x)",
		"age(30)",
		"age(x, y)",
		"age(65, 30)",
		"age(-1, 5)",
		"attr(a) AND",
		"attr(a) trailing",
		"(attr(a)",
		"value(only_one_arg)",
		"value(, x)",
		"gender()",
		"country()",
		"region()",
		"NOT",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("nope(")
}

func TestValidate(t *testing.T) {
	c := DefaultCatalog()
	good := []Expr{
		MatchAll{},
		Has{"platform.music.jazz"},
		ValueIs{"platform.demographics.life_stage", "young family"},
		NewAnd(Has{"platform.music.jazz"}, AgeBetween{18, 65}, GenderIs{"female"}),
		Not{Has{"platform.music.jazz"}},
		NewOr(Has{"platform.music.jazz"}, CountryIs{"US"}, RegionIs{"Chicago"}),
	}
	for _, e := range good {
		if err := Validate(e, c); err != nil {
			t.Errorf("Validate(%s): %v", e, err)
		}
	}
	bad := []Expr{
		Has{"no.such.attr"},
		ValueIs{"no.such.attr", "x"},
		ValueIs{"platform.music.jazz", "x"}, // not categorical
		ValueIs{"platform.demographics.life_stage", "bogus value"},
		NewAnd(MatchAll{}, Has{"no.such.attr"}),
		NewOr(MatchAll{}, Has{"no.such.attr"}),
		Not{Has{"no.such.attr"}},
	}
	for _, e := range bad {
		if err := Validate(e, c); err == nil {
			t.Errorf("Validate(%s) should fail", e)
		}
	}
}

func TestReferencedAttrs(t *testing.T) {
	e := MustParse("attr(a.a.a) AND (attr(b.b.b) OR NOT attr(a.a.a)) AND value(c.c.c, v)")
	got := ReferencedAttrs(e)
	want := []ID{"a.a.a", "b.b.b", "c.c.c"}
	if len(got) != len(want) {
		t.Fatalf("ReferencedAttrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReferencedAttrs = %v, want %v", got, want)
		}
	}
	if n := len(ReferencedAttrs(MatchAll{})); n != 0 {
		t.Fatalf("MatchAll references %d attrs", n)
	}
}

func TestNotStringParenthesizesCompounds(t *testing.T) {
	e := Not{Op: And{Ops: []Expr{Has{"a"}, Has{"b"}}}}
	if !strings.Contains(e.String(), "NOT (") {
		t.Errorf("compound NOT not parenthesized: %s", e)
	}
	reparsed := MustParse(e.String())
	s := &fakeSubject{attrs: map[ID]string{"a": "", "b": ""}}
	if reparsed.Match(s) != e.Match(s) {
		t.Error("reparsed NOT changed semantics")
	}
}

func TestExprStringParsesProperty(t *testing.T) {
	// Property: any expression built from a small grammar round-trips
	// through String/Parse with identical match behaviour on a fixed
	// subject pool.
	subjects := []*fakeSubject{
		paperSubject(),
		{attrs: map[ID]string{}, age: 20, gender: "female", country: "DE", region: "Berlin"},
		{attrs: map[ID]string{"x.y.z": ""}, age: 70, gender: "male", country: "US", region: "Boston"},
	}
	build := func(seed uint16) Expr {
		atoms := []Expr{
			Has{"x.y.z"}, Has{"platform.music.salsa_music"},
			AgeBetween{18, 40}, GenderIs{"female"}, CountryIs{"US"}, MatchAll{},
		}
		e := atoms[int(seed)%len(atoms)]
		seed /= 7
		for seed > 0 {
			next := atoms[int(seed)%len(atoms)]
			switch seed % 3 {
			case 0:
				e = NewAnd(e, next)
			case 1:
				e = NewOr(e, next)
			case 2:
				e = Not{Op: e}
			}
			seed /= 5
		}
		return e
	}
	f := func(seed uint16) bool {
		e := build(seed)
		re, err := Parse(e.String())
		if err != nil {
			return false
		}
		for _, s := range subjects {
			if re.Match(s) != e.Match(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredAttr(t *testing.T) {
	cases := []struct {
		in   string
		want ID // "" = unkeyed
	}{
		{"attr(a.b.c)", "a.b.c"},
		{"value(x.y.z, v)", "x.y.z"},
		{"age(18, 30) AND attr(a.b.c) AND attr(d.e.f)", "a.b.c"},
		{"country(US) AND (gender(male) AND value(x.y.z, v))", "x.y.z"},
		{"(attr(a.b.c) OR attr(d.e.f)) AND attr(g.h.i)", "g.h.i"},
		{"all()", ""},
		{"attr(a.b.c) OR attr(d.e.f)", ""},
		{"NOT attr(a.b.c)", ""},
		{"age(18, 30) AND NOT attr(a.b.c)", ""},
		{"radius(41.88, -87.63, 10)", ""},
	}
	for _, c := range cases {
		id, ok := RequiredAttr(MustParse(c.in))
		if id != c.want || ok != (c.want != "") {
			t.Errorf("RequiredAttr(%s) = %q, %v; want %q", c.in, id, ok, c.want)
		}
	}
	if _, ok := RequiredAttr(nil); ok {
		t.Error("nil expression reported as keyed")
	}
}

func TestRequiredAttrProperty(t *testing.T) {
	// Property: over random expressions and random subjects, a matching
	// subject always holds the required attribute.
	atoms := []Expr{
		Has{"a.b.c"}, Has{"d.e.f"}, ValueIs{"x.y.z", "v"}, ValueIs{"x.y.z", "w"},
		AgeBetween{18, 40}, GenderIs{"female"}, CountryIs{"US"}, MatchAll{},
	}
	var build func(seed *uint64, depth int) Expr
	build = func(seed *uint64, depth int) Expr {
		pick := func(n int) int {
			*seed = *seed*6364136223846793005 + 1442695040888963407
			return int(*seed >> 33 % uint64(n))
		}
		if depth == 0 || pick(3) == 0 {
			return atoms[pick(len(atoms))]
		}
		switch pick(3) {
		case 0:
			return Not{Op: build(seed, depth-1)}
		case 1:
			return Or{Ops: []Expr{build(seed, depth-1), build(seed, depth-1)}}
		}
		ops := make([]Expr, 2+pick(2))
		for i := range ops {
			ops[i] = build(seed, depth-1)
		}
		return And{Ops: ops}
	}
	keyed := 0
	f := func(seed, mask uint64) bool {
		e := build(&seed, 4)
		if _, ok := RequiredAttr(e); ok {
			keyed++
		}
		checkRequiredAttr(t, e, subjectFor(e, mask))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if keyed == 0 {
		t.Fatal("no generated expression was keyed: the property was never exercised")
	}
}
