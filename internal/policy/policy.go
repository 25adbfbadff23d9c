// Package policy implements the platform's ad review: the Terms-of-Service
// checker that rejects ads which "assert or imply personal attributes".
//
// All three platforms the paper quotes have such a rule (Facebook: ads
// "must not contain content that asserts or implies personal attributes";
// Twitter: "must not assert or imply knowledge of personal information";
// Google: may not "imply knowledge of personally identifiable or sensitive
// information within the ad"). The checker here is a keyword/pattern
// classifier over the ad creative — like the real review systems it can be
// evaded by obfuscation, which is exactly the property §4 of the paper
// relies on: explicit Treads violate ToS, obfuscated and landing-page
// Treads pass. Experiment E6 measures this.
package policy

import (
	"fmt"
	"strings"
	"sync"

	"github.com/treads-project/treads/internal/ad"
)

// Verdict is the outcome of reviewing one creative.
type Verdict int

const (
	// Approved means the ad may run.
	Approved Verdict = iota
	// Rejected means the ad violates the personal-attributes policy.
	Rejected
)

// Decision is a review result with the matched reasons.
type Decision struct {
	Verdict Verdict
	// Reasons lists the policy patterns that fired, empty when approved.
	Reasons []string
}

// secondPersonMarkers are phrases that address the viewer directly about
// themselves; combined with an attribute assertion they make an ad "assert
// or imply" a personal attribute.
var secondPersonMarkers = []string{
	"you are", "you're", "you have", "you've", "your ", "because you",
	"we know you", "according to", "people like you",
}

// sensitiveTerms are attribute domains the policies single out. An ad that
// combines a second-person marker with one of these is rejected.
var sensitiveTerms = []string{
	"net worth", "income", "salary", "debt", "credit score", "medical",
	"health condition", "pregnan", "diagnos", "religion", "religious",
	"ethnic", "race", "sexual orientation", "disability", "criminal record",
	"financial status", "age is", "single", "divorced", "unemployed",
	"personal contact information",
	"purchase", "bought", "interested in", "targeting", "targeted",
	"attribute", "data broker", "profile says",
}

// Review classifies one creative. Only the ad itself (headline + body) is
// examined: platforms review the ad content they serve, not the
// advertiser's external landing pages.
func Review(c ad.Creative) Decision {
	text := strings.ToLower(c.Headline + " " + c.Body)
	var reasons []string
	hasSecondPerson := ""
	for _, m := range secondPersonMarkers {
		if strings.Contains(text, m) {
			hasSecondPerson = m
			break
		}
	}
	if hasSecondPerson != "" {
		for _, term := range sensitiveTerms {
			if strings.Contains(text, term) {
				reasons = append(reasons,
					fmt.Sprintf("asserts personal attribute: %q near %q", term, hasSecondPerson))
			}
		}
	}
	if len(reasons) > 0 {
		return Decision{Verdict: Rejected, Reasons: reasons}
	}
	return Decision{Verdict: Approved}
}

// Enforcer tracks per-advertiser policy violations and bans repeat
// offenders, modelling the "detection or shutdown of Treads" the paper's
// crowdsourcing discussion (§4, "Evading shutdown") anticipates.
// Enforcer is safe for concurrent use.
type Enforcer struct {
	mu sync.Mutex
	// BanAfter is the number of rejected ads after which an advertiser
	// account is banned. Zero or negative disables banning.
	BanAfter   int
	violations map[string]int
	banned     map[string]bool
}

// NewEnforcer returns an enforcer that bans accounts after banAfter
// rejections.
func NewEnforcer(banAfter int) *Enforcer {
	return &Enforcer{
		BanAfter:   banAfter,
		violations: make(map[string]int),
		banned:     make(map[string]bool),
	}
}

// Submit reviews a creative on behalf of an advertiser account, recording
// violations and applying bans. Banned accounts always get Rejected.
func (e *Enforcer) Submit(advertiser string, c ad.Creative) Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.banned[advertiser] {
		return Decision{Verdict: Rejected, Reasons: []string{"account banned"}}
	}
	d := Review(c)
	if d.Verdict == Rejected {
		e.violations[advertiser]++
		if e.BanAfter > 0 && e.violations[advertiser] >= e.BanAfter {
			e.banned[advertiser] = true
		}
	}
	return d
}

// Banned reports whether the advertiser account is banned.
func (e *Enforcer) Banned(advertiser string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.banned[advertiser]
}

// Ban immediately bans an account (the platform-initiated shutdown of E8's
// resilience sweep).
func (e *Enforcer) Ban(advertiser string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.banned[advertiser] = true
}
