// Cluster: Treads on a sharded platform.
//
// It builds a 4-shard cluster (users consistent-hash partitioned across
// four independent platform shards), registers a transparency provider
// exactly as on a single platform, opts two users in, deploys obfuscated
// Treads, and decodes what each user learned. The reveal semantics are
// identical to the single-platform quickstart: a user sees exactly the
// Treads for the attributes the platform believes they have, no matter
// which shard owns them — advertiser campaigns replicate to every shard,
// so eligibility is evaluated wherever the user lives.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"github.com/treads-project/treads"
)

func main() {
	// Four independent shards behind one platform API.
	c, err := treads.NewCluster(4, treads.PlatformConfig{Seed: 42}, treads.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Two profiled users; the ring decides which shard owns each.
	catalog := c.Catalog()
	salsa := catalog.Search("Salsa dance")[0].ID
	netWorth := catalog.Search("Net worth: over $2,000,000")[0].ID
	for _, spec := range []struct {
		id    treads.UserID
		attrs []treads.AttrID
	}{
		{"alice", []treads.AttrID{salsa, netWorth}},
		{"bob", []treads.AttrID{salsa}},
	} {
		u := treads.NewProfile(spec.id)
		u.SetCountry("US")
		u.AgeYrs = 34
		for _, a := range spec.attrs {
			u.SetAttr(a)
		}
		if err := c.AddUser(u); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s lives on shard %d\n", spec.id, c.Owner(spec.id))
	}

	// A transparency provider on the cluster — same call shape as on a
	// single platform, via the PlatformAPI surface.
	tp, err := treads.NewProviderOn(c, treads.ProviderConfig{
		Name: "open-transparency", Mode: treads.RevealObfuscated,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Both users opt in and Treads deploy for the two attributes.
	for _, uid := range []treads.UserID{"alice", "bob"} {
		if err := c.LikePage(uid, tp.OptInPage()); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tp.DeployAttrTreads([]treads.AttrID{salsa, netWorth}); err != nil {
		log.Fatal(err)
	}

	// Users browse; the extension decodes their feeds.
	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	for _, uid := range []treads.UserID{"alice", "bob"} {
		if _, err := c.BrowseFeed(uid, 600); err != nil {
			log.Fatal(err)
		}
		rev := ext.Scan(c.Feed(uid), catalog)
		fmt.Printf("%s learned %d platform-held attribute(s):\n", uid, len(rev.Attrs))
		for _, id := range rev.Attrs {
			fmt.Printf("  - %s\n", catalog.Get(id).Name)
		}
	}
}
