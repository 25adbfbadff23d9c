package attr

import "testing"

// FuzzParse checks that the targeting parser never panics and that every
// successfully parsed expression round-trips through its canonical
// printing.
func FuzzParse(f *testing.F) {
	for _, seed := range ExprCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		out := e.String()
		e2, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not reparse: %v", out, input, err)
		}
		if e2.String() != out {
			t.Fatalf("canonical form unstable: %q -> %q", out, e2.String())
		}
	})
}

// subjectFor builds a subject over the attributes e mentions: two bits of
// mask per attribute choose absent, set as a binary attribute, set to the
// value some value() predicate in e asks for, or set to another value. The
// remaining bits pick the demographics.
func subjectFor(e Expr, mask uint64) *fakeSubject {
	wanted := make(map[ID]string)
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case ValueIs:
			if _, ok := wanted[v.ID]; !ok {
				wanted[v.ID] = v.Value
			}
		case And:
			for _, op := range v.Ops {
				walk(op)
			}
		case Or:
			for _, op := range v.Ops {
				walk(op)
			}
		case Not:
			walk(v.Op)
		}
	}
	walk(e)
	s := &fakeSubject{attrs: make(map[ID]string)}
	for _, id := range ReferencedAttrs(e) {
		switch mask & 3 {
		case 1:
			s.attrs[id] = ""
		case 2:
			s.attrs[id] = wanted[id]
		case 3:
			s.attrs[id] = "some other value"
		}
		mask >>= 2
	}
	s.age = int(mask % 100)
	s.gender = []string{"female", "male"}[mask>>7&1]
	s.country = []string{"US", "DE"}[mask>>8&1]
	return s
}

// checkRequiredAttr is the contract the delivery pipeline's campaign index
// rests on: a subject that matches e holds RequiredAttr(e).
func checkRequiredAttr(t *testing.T, e Expr, s *fakeSubject) {
	t.Helper()
	id, ok := RequiredAttr(e)
	if ok && e.Match(s) && !s.HasAttr(id) {
		t.Fatalf("%s matches %v, which does not hold RequiredAttr %q", e, s.attrs, id)
	}
}

// FuzzRequiredAttr checks that contract over everything the parser accepts,
// from the same corpus as FuzzParse.
func FuzzRequiredAttr(f *testing.F) {
	for i, seed := range ExprCorpus() {
		f.Add(seed, uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, input string, mask uint64) {
		e, err := Parse(input)
		if err != nil {
			return
		}
		checkRequiredAttr(t, e, subjectFor(e, mask))
	})
}
