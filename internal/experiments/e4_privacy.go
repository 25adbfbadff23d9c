package experiments

import (
	"fmt"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// E4Row is one line of the privacy analysis (§3.1 "Privacy analysis"):
// at each opted-in population size, what the provider's aggregate estimate
// is worth, and what per-individual inference achieves versus the base
// rate.
type E4Row struct {
	OptedIn int
	// TruePrevalence is the ground-truth fraction holding the attribute.
	TruePrevalence float64
	// EstPrevalence is the provider's estimate from the thresholded
	// report (the legitimate aggregate).
	EstPrevalence float64
	// AttackAccuracy is the per-user membership-guess accuracy using
	// only the report.
	AttackAccuracy float64
	// BaseRate is max(p, 1-p): the accuracy of guessing the majority
	// class with no report at all. Privacy holds iff attack ≈ base rate.
	BaseRate float64
	// ProbeLeaks counts how many of the per-user single-audience probes
	// definitively revealed membership (0 under thresholded reporting).
	ProbeLeaks int
	// ProbeLeaksExact is the same attack against the unsafe exact-report
	// ablation (threshold 0): it reveals every probed user.
	ProbeLeaksExact int
	ProbedUsers     int
}

// E4Privacy runs the threat-model analysis over a sweep of population
// sizes. For each size it simulates delivery of one Tread, computes the
// provider's view, runs the membership attack against every opted-in
// user, and runs the single-user probe attack against `probes` users under
// both the default thresholded reporting and the exact-report ablation.
func E4Privacy(seed uint64, sizes []int, probes int) ([]E4Row, error) {
	var rows []E4Row
	rng := stats.NewRNG(seed)
	for _, n := range sizes {
		p := fixedPlatform(rng.Uint64(), false)
		probe := p.Catalog().BySource(attr.SourcePlatform)[0].ID
		prevalence := 0.3
		holders := make(map[profile.UserID]bool)
		for i := 0; i < n; i++ {
			u := profile.New(profile.UserID(fmt.Sprintf("u%06d", i)))
			u.Nation = "US"
			u.AgeYrs = 30
			if rng.Bool(prevalence) {
				u.SetAttr(probe)
				holders[u.ID] = true
			}
			if err := p.AddUser(u); err != nil {
				return nil, err
			}
		}
		tp, err := core.NewProvider(p, core.ProviderConfig{
			Name: "privacy-tp", Mode: core.RevealObfuscated, CodebookSeed: seed,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			p.LikePage(profile.UserID(fmt.Sprintf("u%06d", i)), tp.OptInPage())
		}
		dep, err := tp.DeployAttrTreads([]attr.ID{probe})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if _, err := p.BrowseFeed(profile.UserID(fmt.Sprintf("u%06d", i)), 5); err != nil {
				return nil, err
			}
		}
		var treadID string
		for cid := range dep.Campaigns {
			treadID = cid
		}
		rep, err := tp.Report(treadID)
		if err != nil {
			return nil, err
		}
		view := core.ProviderView{Payload: core.Payload{Kind: core.PayloadAttr, Attr: probe}, Report: rep, OptedIn: n}
		est, _, _ := core.PrevalenceEstimate(view)
		truePrev := float64(len(holders)) / float64(n)

		// Membership attack: the (single, user-independent) guess scored
		// against every user.
		guess := core.MembershipGuess(view)
		correct := 0
		for i := 0; i < n; i++ {
			uid := profile.UserID(fmt.Sprintf("u%06d", i))
			if guess == holders[uid] {
				correct++
			}
		}
		base := truePrev
		if 1-truePrev > base {
			base = 1 - truePrev
		}

		row := E4Row{
			OptedIn:        n,
			TruePrevalence: truePrev,
			EstPrevalence:  est,
			AttackAccuracy: float64(correct) / float64(n),
			BaseRate:       base,
			ProbedUsers:    probes,
		}

		// Single-user probe attack, thresholded vs exact.
		for mode := 0; mode < 2; mode++ {
			pp := fixedPlatform(rng.Uint64(), false)
			if mode == 1 {
				pp.SetBillableThreshold(0)
			}
			leaks := 0
			for i := 0; i < probes && i < n; i++ {
				uid := profile.UserID(fmt.Sprintf("u%06d", i))
				u := profile.New(uid)
				u.Nation = "US"
				u.AgeYrs = 30
				if holders[uid] {
					u.SetAttr(probe)
				}
				if err := pp.AddUser(u); err != nil {
					return nil, err
				}
			}
			atk, err := core.NewProvider(pp, core.ProviderConfig{
				Name: "attacker-tp", Mode: core.RevealObfuscated, CodebookSeed: seed,
			})
			if err != nil {
				return nil, err
			}
			for i := 0; i < probes && i < n; i++ {
				uid := profile.UserID(fmt.Sprintf("u%06d", i))
				// The attacker builds a single-user opt-in (e.g. a pixel
				// page it tricked one user onto) and probes the attribute.
				px, res, err := atk.DeployCustomAttrOptIn(probe)
				if err != nil {
					return nil, err
				}
				if err := pp.VisitPage(uid, px); err != nil {
					return nil, err
				}
				if _, err := pp.BrowseFeed(uid, 3); err != nil {
					return nil, err
				}
				for cid := range res.Campaigns {
					r, err := atk.Report(cid)
					if err != nil {
						return nil, err
					}
					v := core.ProviderView{Report: r, OptedIn: 1}
					if _, definitive := core.ProbeReveals(v); definitive {
						leaks++
					}
				}
			}
			if mode == 0 {
				row.ProbeLeaks = leaks
			} else {
				row.ProbeLeaksExact = leaks
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E4Table renders the privacy analysis.
func E4Table(rows []E4Row) *Table {
	t := &Table{
		Title: "E4 (§3.1 Privacy analysis): aggregates converge, individuals stay hidden",
		Columns: []string{"opted-in", "true prev", "est prev", "attack acc",
			"base rate", "probe leaks", "probe leaks (exact ablation)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.OptedIn),
			cell(r.TruePrevalence),
			cell(r.EstPrevalence),
			cellPct(r.AttackAccuracy),
			cellPct(r.BaseRate),
			fmt.Sprintf("%d/%d", r.ProbeLeaks, r.ProbedUsers),
			fmt.Sprintf("%d/%d", r.ProbeLeaksExact, r.ProbedUsers),
		})
	}
	t.Notes = append(t.Notes,
		"attack accuracy == base rate: the report carries no per-user signal (paper: provider \"cannot learn which particular users have which attributes\")",
		"probe leaks are zero under thresholded reporting; the exact-report ablation (threshold 0) leaks the attribute of every probed holder",
		fmt.Sprintf("report threshold: %d users (billing.ReachReportThreshold)", billing.ReachReportThreshold))
	return t
}
