// Package attr models advertising-platform targeting attributes and the
// Boolean targeting-expression language advertisers use to combine them.
//
// Attributes come from two sources, mirroring the Facebook platform the
// paper validated against: attributes computed by the platform itself
// (interests, behaviours, demographics — 614 of them as of early 2018) and
// "partner" attributes sourced from external data brokers such as Acxiom,
// Oracle Data Cloud and Epsilon (507 available to U.S. advertisers). Partner
// attributes are the ones the platform's own transparency surfaces hide from
// users, and therefore the ones the paper's validation reveals via Treads.
package attr

import (
	"fmt"
	"strings"
)

// ID uniquely identifies an attribute in a catalog, e.g.
// "platform.interest.salsa_dance" or "partner.financial.net_worth_2m_plus".
type ID string

// Source tells where the platform obtained an attribute.
type Source int

const (
	// SourcePlatform marks attributes the platform computes from on- and
	// off-platform user activity. These appear on the user-facing "ad
	// preferences" page.
	SourcePlatform Source = iota
	// SourcePartner marks attributes obtained from third-party data
	// brokers. The platform offers them to advertisers but does not reveal
	// them to users (the transparency gap Treads closes).
	SourcePartner
)

func (s Source) String() string {
	switch s {
	case SourcePlatform:
		return "platform"
	case SourcePartner:
		return "partner"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Kind describes an attribute's value space.
type Kind int

const (
	// Binary attributes are set/unset per user ("is single",
	// "net worth between $1M and $2M"). Most catalog attributes are binary;
	// footnote 1 of the paper notes this is how platforms expose them.
	Binary Kind = iota
	// Categorical attributes take exactly one of an enumerated set of
	// values per user (e.g. a 16-way "life stage segment"). They motivate
	// the paper's log2(m) bit-split scheme (experiment E3).
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Binary:
		return "binary"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute is one targeting attribute offered to advertisers.
type Attribute struct {
	ID       ID
	Name     string // human-readable, as shown in the ads manager
	Category string // grouping, e.g. "Financial", "Purchase behavior"
	Source   Source
	Broker   string // data broker name for SourcePartner, "" otherwise
	Kind     Kind
	// Values enumerates the value space for Categorical attributes,
	// in a fixed order (the order defines the bit-split encoding).
	Values []string
}

// HasValue reports whether v is a legal value for a categorical attribute.
func (a *Attribute) HasValue(v string) bool {
	for _, w := range a.Values {
		if w == v {
			return true
		}
	}
	return false
}

// Catalog is the full set of attributes a platform offers advertisers,
// searchable the way the real ads manager is (keyword search over names).
type Catalog struct {
	byID    map[ID]*Attribute
	ordered []*Attribute
}

// NewCatalog builds a catalog from attrs. Duplicate IDs are an error.
func NewCatalog(attrs []Attribute) (*Catalog, error) {
	c := &Catalog{byID: make(map[ID]*Attribute, len(attrs))}
	for i := range attrs {
		a := attrs[i]
		if a.ID == "" {
			return nil, fmt.Errorf("attr: attribute %q has empty ID", a.Name)
		}
		if _, dup := c.byID[a.ID]; dup {
			return nil, fmt.Errorf("attr: duplicate attribute ID %q", a.ID)
		}
		if a.Kind == Categorical && len(a.Values) < 2 {
			return nil, fmt.Errorf("attr: categorical attribute %q has %d values", a.ID, len(a.Values))
		}
		cp := a
		c.byID[a.ID] = &cp
		c.ordered = append(c.ordered, &cp)
	}
	return c, nil
}

// MustNewCatalog is NewCatalog that panics on error; for generated catalogs.
func MustNewCatalog(attrs []Attribute) *Catalog {
	c, err := NewCatalog(attrs)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of attributes in the catalog.
func (c *Catalog) Len() int { return len(c.ordered) }

// Get returns the attribute with the given ID, or nil.
func (c *Catalog) Get(id ID) *Attribute { return c.byID[id] }

// All returns the attributes in catalog order. The slice is shared; callers
// must not modify it.
func (c *Catalog) All() []*Attribute { return c.ordered }

// BySource returns the attributes from the given source, in catalog order.
func (c *Catalog) BySource(s Source) []*Attribute {
	var out []*Attribute
	for _, a := range c.ordered {
		if a.Source == s {
			out = append(out, a)
		}
	}
	return out
}

// Search performs the ads-manager-style keyword search: case-insensitive
// substring match over attribute names and categories. An empty query
// matches nothing.
func (c *Catalog) Search(query string) []*Attribute {
	q := strings.ToLower(strings.TrimSpace(query))
	if q == "" {
		return nil
	}
	var out []*Attribute
	for _, a := range c.ordered {
		if strings.Contains(strings.ToLower(a.Name), q) ||
			strings.Contains(strings.ToLower(a.Category), q) {
			out = append(out, a)
		}
	}
	return out
}
