// Piicheck demonstrates §3.1 "Supporting PII": a user checks which pieces
// of their PII the advertising platform has associated with their account —
// including a phone number they never knowingly gave it (synced from a
// friend's contact list, as Venkatadri et al. (PETS'19) found) — by
// submitting only HASHES to the transparency provider.
//
//	go run ./examples/piicheck
package main

import (
	"fmt"
	"log"

	"github.com/treads-project/treads"
)

func main() {
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 7})

	// The platform's view of Bob: his signup email plus a phone number
	// harvested from a friend's address book.
	bob := treads.NewProfile("bob")
	bob.SetCountry("US")
	bob.AgeYrs = 29
	bob.SetPII(treads.PIIRecord{
		Emails: []string{"bob@example.com"},
		Phones: []string{"+1 617 555 0188"}, // Bob never provided this
	})
	if err := p.AddUser(bob); err != nil {
		log.Fatal(err)
	}

	tp, err := treads.NewProvider(p, treads.ProviderConfig{
		Name: "pii-check-tp", Mode: treads.RevealObfuscated,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Bob wants to know which of these the platform holds. He hashes them
	// locally; the provider never sees raw PII.
	candidates := map[string]treads.MatchKey{}
	for _, email := range []string{"bob@example.com", "bob.work@corp.example"} {
		k, err := treads.HashEmail(email)
		if err != nil {
			log.Fatal(err)
		}
		candidates[email] = k
	}
	for _, phone := range []string{"+1 617 555 0188", "+1 617 555 0000"} {
		k, err := treads.HashPhone(phone)
		if err != nil {
			log.Fatal(err)
		}
		candidates[phone] = k
	}

	var keys []treads.MatchKey
	for _, k := range candidates {
		keys = append(keys, k)
	}
	if _, err := tp.DeployPIIChecks(keys); err != nil {
		log.Fatal(err)
	}

	if _, err := p.BrowseFeed("bob", 50); err != nil {
		log.Fatal(err)
	}

	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(p.Feed("bob"), p.Catalog())

	fmt.Println("PII the platform holds for Bob (per the Treads he received):")
	for raw, k := range candidates {
		held := rev.HasPIIHash(k.Hash)
		mark := "not on file"
		if held {
			mark = "ON FILE"
		}
		fmt.Printf("  %-28s (%s)  %s\n", raw, k.Type, mark)
	}
	fmt.Println("\nNote: the harvested phone number is ON FILE even though Bob")
	fmt.Println("never provided it — the transparency gap this check closes.")
}
