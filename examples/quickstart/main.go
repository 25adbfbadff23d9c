// Quickstart: the smallest end-to-end Treads run.
//
// It builds a simulated ad platform with one user, registers a
// transparency provider, opts the user in by liking the provider's page,
// deploys obfuscated Treads for a handful of attributes, lets the user
// browse, and decodes what they learned with the browser-extension
// analogue.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/treads-project/treads"
)

func main() {
	// A deterministic platform (fixed auction market seed).
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 42})

	// One user the platform has profiled: a 34-year-old in Chicago whom
	// the platform believes is into salsa dancing and jazz, and whom a
	// data broker has tagged with a net-worth band.
	u := treads.NewProfile("alice")
	u.SetCountry("US")
	u.SetRegion("Chicago")
	u.AgeYrs = 34
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	jazz := p.Catalog().Search("Jazz")[0].ID
	netWorth := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	u.SetAttr(salsa)
	u.SetAttr(jazz)
	u.SetAttr(netWorth)
	if err := p.AddUser(u); err != nil {
		log.Fatal(err)
	}

	// The platform's own transparency page hides the broker attribute.
	prefs, err := p.AdPreferences("alice")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Platform ad-preferences page shows %d attributes (partner data hidden):\n", len(prefs))
	for _, id := range prefs {
		fmt.Printf("  - %s\n", p.Catalog().Get(id).Name)
	}

	// A transparency provider signs up as an advertiser.
	tp, err := treads.NewProvider(p, treads.ProviderConfig{
		Name: "open-transparency", Mode: treads.RevealObfuscated,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Alice opts in by liking the provider's page.
	if err := p.LikePage("alice", tp.OptInPage()); err != nil {
		log.Fatal(err)
	}

	// One Tread per attribute of interest (here: a few; the validation in
	// examples/partnerreveal runs all 507 partner attributes).
	res, err := tp.DeployAttrTreads([]treads.AttrID{salsa, netWorth,
		p.Catalog().Search("Skiing")[0].ID}) // alice does NOT have this one
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDeployed %d Treads plus a control ad.\n", len(res.Campaigns))

	// Alice browses her feed.
	if _, err := p.BrowseFeed("alice", 50); err != nil {
		log.Fatal(err)
	}

	// Her extension decodes the Treads using the codebook the provider
	// shared at opt-in.
	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(p.Feed("alice"), p.Catalog())

	fmt.Printf("\nWhat Alice learned (control seen: %v):\n", rev.ControlSeen)
	for _, id := range rev.Attrs {
		a := p.Catalog().Get(id)
		fmt.Printf("  - the platform has %q set for her (source: %s", a.Name, a.Source)
		if a.Broker != "" {
			fmt.Printf(", broker: %s", a.Broker)
		}
		fmt.Println(")")
	}
	fmt.Printf("\nThe provider, meanwhile, sees only thresholded aggregates:\n")
	for _, cid := range tp.Campaigns() {
		r, err := tp.Report(cid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("total invoiced: %v (tiny audiences cost nothing)\n", tp.TotalInvoiced())
}
