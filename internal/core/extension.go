package core

import (
	"sort"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
)

// Extension is the user-side collector the paper sketches ("users see these
// Treads while browsing normally (and can potentially save these using a
// browser extension)"). It scans a feed for the provider's ads, decodes
// their payloads, and assembles the profile the platform has revealed.
type Extension struct {
	// ProviderName filters the feed to ads from this advertiser account.
	ProviderName string
	// Codebook is the obfuscation book received at opt-in; nil if the
	// provider runs explicit or landing-page Treads only.
	Codebook *Codebook
	// FollowLinks permits decoding landing-page Treads. Users who want no
	// interaction beyond the platform leave it false (§3.1 privacy
	// analysis: staying inside the ad "leav[es] no scope for leakage").
	FollowLinks bool
	// BitSplitAttrs lists attributes the provider deploys via the
	// bit-split scheme (shared with users at opt-in, like the codebook).
	// For these, a confirmation Tread with no bit-Treads decodes to value
	// index 0; without this knowledge an all-zero index would be
	// indistinguishable from a plain attribute Tread.
	BitSplitAttrs map[attr.ID]bool
}

// Revealed is what a user has learned from the Treads they saw.
type Revealed struct {
	// ControlSeen confirms the user is reachable by the provider's ads.
	ControlSeen bool
	// Attrs are attribute IDs the platform has set for the user.
	Attrs []attr.ID
	// AbsentAttrs are attributes revealed (via exclusion Treads) to be
	// false or missing.
	AbsentAttrs []attr.ID
	// Values are categorical attribute values learned from value-Treads.
	Values map[attr.ID]string
	// PIIHashes are hashed PII items the platform was shown to hold.
	PIIHashes []string
	// Affinities are keyword-audience memberships revealed by affinity
	// Treads ("|"-joined phrase lists).
	Affinities []string
	// Lookalikes are the seed descriptions of lookalike audiences the
	// platform placed the user in.
	Lookalikes []string
	// Exprs are the compound targeting expressions the user was revealed
	// to satisfy, in canonical syntax.
	Exprs []string

	// bit-split working state
	bits         map[attr.ID]map[int]bool
	confirmed    map[attr.ID]bool
	attrSet      map[attr.ID]bool
	absentSet    map[attr.ID]bool
	piiHashSet   map[string]bool
	affinitySet  map[string]bool
	lookalikeSet map[string]bool
	exprSet      map[string]bool
}

func newRevealed() *Revealed {
	return &Revealed{
		Values:       make(map[attr.ID]string),
		bits:         make(map[attr.ID]map[int]bool),
		confirmed:    make(map[attr.ID]bool),
		attrSet:      make(map[attr.ID]bool),
		absentSet:    make(map[attr.ID]bool),
		piiHashSet:   make(map[string]bool),
		affinitySet:  make(map[string]bool),
		lookalikeSet: make(map[string]bool),
		exprSet:      make(map[string]bool),
	}
}

// Scan decodes every Tread from the provider found in the feed and merges
// it into a Revealed summary. Bit-split values are reassembled against the
// catalog.
func (e *Extension) Scan(feed []ad.Impression, catalog *attr.Catalog) *Revealed {
	r := newRevealed()
	for _, imp := range feed {
		if e.ProviderName != "" && imp.Advertiser != e.ProviderName {
			continue
		}
		p, ok := DecodeCreative(imp.Creative, e.Codebook, e.FollowLinks)
		if !ok {
			continue
		}
		r.absorb(p)
	}
	r.finish(catalog, e.BitSplitAttrs)
	return r
}

func (r *Revealed) absorb(p Payload) {
	switch p.Kind {
	case PayloadControl:
		r.ControlSeen = true
	case PayloadAttr:
		r.confirmed[p.Attr] = true
		if !r.attrSet[p.Attr] {
			r.attrSet[p.Attr] = true
		}
	case PayloadNotAttr:
		r.absentSet[p.Attr] = true
	case PayloadValue:
		r.Values[p.Attr] = p.Value
		r.attrSet[p.Attr] = true
	case PayloadBit:
		if p.BitSet {
			m := r.bits[p.Attr]
			if m == nil {
				m = make(map[int]bool)
				r.bits[p.Attr] = m
			}
			m[p.Bit] = true
		}
	case PayloadPII:
		r.piiHashSet[p.PIIHash] = true
	case PayloadAffinity:
		r.affinitySet[p.Phrases] = true
	case PayloadLookalike:
		r.lookalikeSet[p.SeedDesc] = true
	case PayloadExpr:
		r.exprSet[p.Expr] = true
	}
}

// finish materializes the sorted public fields and resolves bit-split
// values for attributes whose confirmation Tread was seen.
func (r *Revealed) finish(catalog *attr.Catalog, bitSplitAttrs map[attr.ID]bool) {
	resolve := make(map[attr.ID]bool, len(r.bits))
	for id := range r.bits {
		resolve[id] = true
	}
	for id := range bitSplitAttrs {
		if bitSplitAttrs[id] {
			resolve[id] = true
		}
	}
	for id := range resolve {
		if !r.confirmed[id] || catalog == nil {
			continue
		}
		a := catalog.Get(id)
		if a == nil || a.Kind != attr.Categorical {
			continue
		}
		var set []int
		for b := range r.bits[id] {
			set = append(set, b)
		}
		if v, err := ReassembleValue(a, true, set); err == nil {
			r.Values[id] = v
		}
	}
	r.Attrs = sortedIDs(r.attrSet)
	r.AbsentAttrs = sortedIDs(r.absentSet)
	r.PIIHashes = r.PIIHashes[:0]
	for h := range r.piiHashSet {
		r.PIIHashes = append(r.PIIHashes, h)
	}
	sort.Strings(r.PIIHashes)
	r.Affinities = r.Affinities[:0]
	for a := range r.affinitySet {
		r.Affinities = append(r.Affinities, a)
	}
	sort.Strings(r.Affinities)
	r.Lookalikes = r.Lookalikes[:0]
	for l := range r.lookalikeSet {
		r.Lookalikes = append(r.Lookalikes, l)
	}
	sort.Strings(r.Lookalikes)
	r.Exprs = r.Exprs[:0]
	for e := range r.exprSet {
		r.Exprs = append(r.Exprs, e)
	}
	sort.Strings(r.Exprs)
}

func sortedIDs(set map[attr.ID]bool) []attr.ID {
	out := make([]attr.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasAttr reports whether the attribute was revealed as set.
func (r *Revealed) HasAttr(id attr.ID) bool { return r.attrSet[id] }

// HasPIIHash reports whether the hashed PII item was revealed as held.
func (r *Revealed) HasPIIHash(hash string) bool { return r.piiHashSet[hash] }
