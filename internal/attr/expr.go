package attr

import (
	"fmt"
	"strings"
)

// Subject is the view of a user that targeting expressions evaluate against.
// It is implemented by profile.Profile; defining it here keeps the targeting
// language independent of the profile store.
type Subject interface {
	// HasAttr reports whether the platform has set the binary attribute
	// (or any value of a categorical attribute) for this user.
	HasAttr(id ID) bool
	// AttrValue returns the user's value of a categorical attribute.
	AttrValue(id ID) (string, bool)
	// Age returns the user's age in years as the platform models it.
	Age() int
	// Gender returns the user's gender string ("male", "female", ...).
	Gender() string
	// Country returns the ISO-ish country code, e.g. "US".
	Country() string
	// Region returns the user's city/region, e.g. "Chicago".
	Region() string
}

// Expr is a targeting expression: the Boolean combination of predicates the
// ads manager lets advertisers build ("Millennials who live in Chicago, are
// interested in musicals, are currently unemployed, and are not in a
// relationship" in the paper's example).
type Expr interface {
	// Match reports whether the subject satisfies the expression.
	Match(s Subject) bool
	// String renders the expression in the canonical textual syntax
	// accepted by Parse.
	String() string
}

// MatchAll matches every user; used for control ads that target the whole
// opted-in audience with no additional parameters.
type MatchAll struct{}

func (MatchAll) Match(Subject) bool { return true }
func (MatchAll) String() string     { return "all()" }

// Has matches users for whom the attribute is set.
type Has struct{ ID ID }

func (h Has) Match(s Subject) bool { return s.HasAttr(h.ID) }
func (h Has) String() string       { return fmt.Sprintf("attr(%s)", h.ID) }

// ValueIs matches users whose categorical attribute has exactly the value.
type ValueIs struct {
	ID    ID
	Value string
}

func (v ValueIs) Match(s Subject) bool {
	got, ok := s.AttrValue(v.ID)
	return ok && got == v.Value
}
func (v ValueIs) String() string { return fmt.Sprintf("value(%s, %s)", v.ID, v.Value) }

// AgeBetween matches users whose age is in [Min, Max] inclusive.
type AgeBetween struct{ Min, Max int }

func (a AgeBetween) Match(s Subject) bool {
	age := s.Age()
	return age >= a.Min && age <= a.Max
}
func (a AgeBetween) String() string { return fmt.Sprintf("age(%d, %d)", a.Min, a.Max) }

// GenderIs matches users of the given gender.
type GenderIs struct{ Gender string }

func (g GenderIs) Match(s Subject) bool { return s.Gender() == g.Gender }
func (g GenderIs) String() string       { return fmt.Sprintf("gender(%s)", g.Gender) }

// CountryIs matches users in the given country.
type CountryIs struct{ Country string }

func (c CountryIs) Match(s Subject) bool { return s.Country() == c.Country }
func (c CountryIs) String() string       { return fmt.Sprintf("country(%s)", c.Country) }

// RegionIs matches users in the given city/region.
type RegionIs struct{ Region string }

func (r RegionIs) Match(s Subject) bool { return s.Region() == r.Region }
func (r RegionIs) String() string       { return fmt.Sprintf("region(%s)", r.Region) }

// And matches users who satisfy every operand.
type And struct{ Ops []Expr }

func (a And) Match(s Subject) bool {
	for _, op := range a.Ops {
		if !op.Match(s) {
			return false
		}
	}
	return true
}

func (a And) String() string { return joinOps(a.Ops, " AND ") }

// Or matches users who satisfy at least one operand.
type Or struct{ Ops []Expr }

func (o Or) Match(s Subject) bool {
	for _, op := range o.Ops {
		if op.Match(s) {
			return true
		}
	}
	return false
}

func (o Or) String() string { return joinOps(o.Ops, " OR ") }

// Not matches users who do not satisfy the operand. This is the platform's
// "exclude" feature; the paper uses it to reveal that an attribute is false
// or missing for a user (§3.1).
type Not struct{ Op Expr }

func (n Not) Match(s Subject) bool { return !n.Op.Match(s) }
func (n Not) String() string {
	switch n.Op.(type) {
	case And, Or:
		return "NOT (" + n.Op.String() + ")"
	}
	return "NOT " + n.Op.String()
}

func joinOps(ops []Expr, sep string) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		s := op.String()
		switch op.(type) {
		case And, Or:
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// NewAnd flattens trivial cases: zero operands is MatchAll, one operand is
// the operand itself.
func NewAnd(ops ...Expr) Expr {
	switch len(ops) {
	case 0:
		return MatchAll{}
	case 1:
		return ops[0]
	}
	return And{Ops: ops}
}

// NewOr flattens trivial cases like NewAnd. Zero operands matches nothing
// and is represented as NOT all().
func NewOr(ops ...Expr) Expr {
	switch len(ops) {
	case 0:
		return Not{Op: MatchAll{}}
	case 1:
		return ops[0]
	}
	return Or{Ops: ops}
}

// Validate checks that every attribute the expression references exists in
// the catalog and that every value predicate names a legal value.
func Validate(e Expr, c *Catalog) error {
	switch v := e.(type) {
	case MatchAll, AgeBetween, GenderIs, CountryIs, RegionIs, WithinKM:
		return nil
	case Has:
		if c.Get(v.ID) == nil {
			return fmt.Errorf("attr: unknown attribute %q", v.ID)
		}
		return nil
	case ValueIs:
		a := c.Get(v.ID)
		if a == nil {
			return fmt.Errorf("attr: unknown attribute %q", v.ID)
		}
		if a.Kind != Categorical {
			return fmt.Errorf("attr: value() on non-categorical attribute %q", v.ID)
		}
		if !a.HasValue(v.Value) {
			return fmt.Errorf("attr: attribute %q has no value %q", v.ID, v.Value)
		}
		return nil
	case And:
		for _, op := range v.Ops {
			if err := Validate(op, c); err != nil {
				return err
			}
		}
		return nil
	case Or:
		for _, op := range v.Ops {
			if err := Validate(op, c); err != nil {
				return err
			}
		}
		return nil
	case Not:
		return Validate(v.Op, c)
	default:
		return fmt.Errorf("attr: unknown expression type %T", e)
	}
}

// ReferencedAttrs returns the set of attribute IDs the expression mentions,
// in first-mention order. Platform-generated ad explanations draw from this
// set (and, per the paper, reveal at most one element of it).
func ReferencedAttrs(e Expr) []ID {
	var out []ID
	seen := make(map[ID]bool)
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case Has:
			if !seen[v.ID] {
				seen[v.ID] = true
				out = append(out, v.ID)
			}
		case ValueIs:
			if !seen[v.ID] {
				seen[v.ID] = true
				out = append(out, v.ID)
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
	return out
}

// RequiredAttr returns an attribute every subject matching e must hold:
// e.Match(s) implies s.HasAttr(id). Has and ValueIs require their own
// attribute and an And requires whatever its first such operand requires;
// ok is false for every other expression (nil, Or, Not, demographics,
// geo), which a subject holding no attribute at all may match. The
// delivery pipeline files a campaign under this attribute, so a browse only
// evaluates the campaigns keyed on an attribute the user holds.
func RequiredAttr(e Expr) (id ID, ok bool) {
	switch v := e.(type) {
	case Has:
		return v.ID, true
	case ValueIs:
		return v.ID, true
	case And:
		for _, op := range v.Ops {
			if id, ok := RequiredAttr(op); ok {
				return id, true
			}
		}
	}
	return "", false
}
