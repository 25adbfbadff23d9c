package audience

import (
	"fmt"
	"sort"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

// Lookalike audiences — the remaining major targeting primitive of
// 2018-era platforms (Facebook "Lookalike Audiences"): the advertiser
// supplies a seed audience, the platform finds OTHER users whose profiles
// resemble the seed. Like every custom audience, membership is computed
// platform-side and never revealed to the advertiser.
//
// The similarity model here is deliberately simple and deterministic: at
// creation time the platform derives the seed's "signature" — the
// attributes held by a strict majority of the seed members — and a user
// matches when they hold at least the overlap fraction of the signature
// (and are not themselves in the seed).
//
// On a cluster each shard derives the signature from the seed members it
// holds. Only replicated state (the seed's existence, owner and kind) may
// refuse a lookalike, or the shards' audience IDs part ways; a partition
// with no usable seed gets an empty signature, which matches nobody.

// DefaultLookalikeOverlap is the fraction of the seed signature a user
// must hold to qualify.
const DefaultLookalikeOverlap = 0.5

// CreateLookalikeAudience derives a lookalike from an existing seed
// audience owned by the same advertiser. The signature is computed from
// the seed's membership at creation time, like real platforms' periodic
// materialization. overlap <= 0 selects DefaultLookalikeOverlap; it must
// be finite (Def.Validate).
func (e *Engine) CreateLookalikeAudience(advertiser, name string, seed AudienceID, overlap float64) (*Audience, error) {
	e.mu.RLock()
	seedAud := e.audiences[seed]
	e.mu.RUnlock()
	if seedAud == nil {
		return nil, fmt.Errorf("audience: unknown seed audience %q", seed)
	}
	if seedAud.Advertiser != advertiser {
		return nil, fmt.Errorf("audience: seed audience %q belongs to %q, not %q", seed, seedAud.Advertiser, advertiser)
	}
	if seedAud.Kind == KindLookalike {
		return nil, fmt.Errorf("audience: lookalike-of-lookalike is not supported")
	}
	if overlap <= 0 {
		overlap = DefaultLookalikeOverlap
	}
	if overlap > 1 {
		overlap = 1
	}

	// Materialize the seed and derive its signature.
	var members []*profile.Profile
	e.store.Each(func(p *profile.Profile) {
		if e.MemberOf(seedAud, p) {
			members = append(members, p)
		}
	})
	counts := make(map[attr.ID]int)
	for _, m := range members {
		for _, id := range m.Attrs() {
			counts[id]++
		}
	}
	var signature []attr.ID
	for id, n := range counts {
		if 2*n > len(members) {
			signature = append(signature, id)
		}
	}
	sort.Slice(signature, func(i, j int) bool { return signature[i] < signature[j] })
	seedSet := make(map[profile.UserID]bool, len(members))
	for _, m := range members {
		seedSet[m.ID] = true
	}

	e.mu.Lock()
	a := e.newAudience(advertiser, KindLookalike, name)
	a.seed = seed
	a.signature = signature
	a.overlap = overlap
	a.seedMembers = seedSet
	e.mu.Unlock()
	e.seedAudienceBits(a)
	return a, nil
}

// lookalikeMatch reports whether the profile resembles the seed signature.
func (a *Audience) lookalikeMatch(p *profile.Profile) bool {
	// An empty signature matches nobody (hit >= overlap*0 would admit all);
	// lookalikes find new people, not the seed itself.
	if len(a.signature) == 0 || a.seedMembers[p.ID] {
		return false
	}
	hit := 0
	for _, id := range a.signature {
		if p.HasAttr(id) {
			hit++
		}
	}
	return float64(hit) >= a.overlap*float64(len(a.signature))
}
